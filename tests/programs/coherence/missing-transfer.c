// A missing transfer: `q` is written on the device under create(q) and
// never copied back, so the host read after the region sees a stale zero.
// expect check: exit 1
// expect check: - ERROR: q is stale at cpu_read@42; a memory transfer is missing.
// expect run: out              = 0
double q[32];
double w[32];
double out;
void main() {
    int j;
    for (j = 0; j < 32; j++) { w[j] = 3.0; }
    #pragma acc data copyin(w) create(q)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { q[j] = w[j]; }
    }
    out = q[0];
}
