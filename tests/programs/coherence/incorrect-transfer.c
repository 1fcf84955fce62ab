// The host rewrites `w` after the device wrote it, but never uploads the
// new value: the second kernel reads device-w (still 5.0) while the host
// holds 7.0. The tool reports the stale read at the kernel boundary.
// expect check: exit 1
// expect check: - WARNING: w may be stale at cpu_write@32; verify whether a transfer is needed.
// expect check: - ERROR: w is stale at main_kernel1; a memory transfer is missing.
// expect run: q                = [5.000000, 5.000000, 5.000000, 5.000000, 5.000000, 5.000000, …] (len 16)
double q[16];
double w[16];
void main() {
    int j;
    #pragma acc data create(w, q)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { w[j] = 5.0; }
        for (j = 0; j < 16; j++) { w[j] = 7.0; }
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { q[j] = w[j]; }
        #pragma acc update host(q)
    }
}
