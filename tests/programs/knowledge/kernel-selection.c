// The `kernels=` verification option selects which kernels run verified;
// `complement=1` inverts the selection, as in the paper.
// expect verify complement=0,kernels=main_kernel1: exit 0
// expect verify complement=0,kernels=main_kernel1: main_kernel0         launches=0    mismatched=0        max|err|=0.000e0      asserts_failed=0   skipped
// expect verify complement=0,kernels=main_kernel1: main_kernel1         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
// expect verify complement=1,kernels=main_kernel1: exit 0
// expect verify complement=1,kernels=main_kernel1: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
// expect verify complement=1,kernels=main_kernel1: main_kernel1         launches=0    mismatched=0        max|err|=0.000e0      asserts_failed=0   skipped
double a[16];
double b[16];
void main() {
    int j;
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { a[j] = 1.0; }
    #pragma acc kernels loop gang
    for (j = 0; j < 16; j++) { b[j] = 2.0; }
}
