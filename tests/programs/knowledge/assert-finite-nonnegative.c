// `assert_finite` and `assert_nonnegative` both hold for 1 / (j + 1).
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
double a[16];
void main() {
    int j;
    #pragma openarc verify assert_finite(a)
    #pragma openarc verify assert_nonnegative(a)
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { a[j] = 1.0 / ((double) j + 1.0); }
}
