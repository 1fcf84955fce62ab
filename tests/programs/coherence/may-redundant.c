// The compiler can only prove `q` may-dead before the partial overwrite
// (the paper's CG discussion), so the copy-in is left to the user's
// judgement. A partial device write plus copy back keeps the elements the
// kernel did not write.
// expect check: exit 0
// expect check: - Copying q from host to device in data_enter0 may be redundant; verify the value is dead.
// expect run: out              = 1
// expect run: q                = [2.000000, 2.000000, 2.000000, 2.000000, 2.000000, 2.000000, …] (len 16)
double q[16];
double w[16];
double out;
void main() {
    int j;
    for (j = 0; j < 16; j++) { q[j] = 1.0; w[j] = 2.0; }
    #pragma acc data copyin(q, w)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 8; j++) { q[j] = w[j]; }
        #pragma acc update host(q)
    }
    out = q[12];
}
