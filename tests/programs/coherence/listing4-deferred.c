// The JACOBI scenario of Listings 3 and 4: a per-iteration copy-out of
// `b`. The first download is needed; iterations 2 to 4 are redundant, each
// reported with its loop context once the loop finishes.
// expect check: exit 0
// expect check: - Copying b from device to host in update0 (enclosing k-loop index = 2) is redundant.
// expect check: - Copying b from device to host in update0 (enclosing k-loop index = 3) is redundant.
// expect check: - Copying b from device to host in update0 (enclosing k-loop index = 4) is redundant.
double a[32];
double b[32];
double out;
void main() {
    int k; int j;
    for (j = 0; j < 32; j++) { a[j] = 1.0; }
    #pragma acc data copyin(a) create(b)
    {
        for (k = 0; k < 4; k++) {
            #pragma acc kernels loop gang
            for (j = 0; j < 32; j++) { b[j] = a[j] + (double) k; }
            #pragma acc update host(b)
        }
    }
    out = b[0];
}
