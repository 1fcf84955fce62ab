// `assert_checksum(a, 2080.0, 0.5)` on a healthy kernel: `tmp` is written
// first, so it is privatized, and the checksum sum(j + 1) = 2080 holds.
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify assert_checksum(a, 2080.0, 0.5)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = (double) j; a[j] = tmp + 1.0; }
}
