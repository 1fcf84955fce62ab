// Class (i) of §III-B: `w` never changes after the region's copyin, so the
// in-loop re-upload is a transfer of non-stale data, once per iteration.
// Redundant transfers are warnings, not errors.
// expect check: exit 0
// expect check: - Copying w from host to device in update0 (enclosing k-loop index = 1) is redundant.
// expect check: - Copying w from host to device in update0 (enclosing k-loop index = 2) is redundant.
// expect check: - Copying w from host to device in update0 (enclosing k-loop index = 3) is redundant.
// expect check: - Copying q from device to host in data_exit0 is redundant.
double q[32];
double w[32];
void main() {
    int k; int j;
    for (j = 0; j < 32; j++) { w[j] = 1.0; }
    #pragma acc data copyin(w) copyout(q)
    {
        for (k = 0; k < 3; k++) {
            #pragma acc update device(w)
            #pragma acc kernels loop gang
            for (j = 0; j < 32; j++) { q[j] = w[j] + (double) k; }
        }
    }
}
