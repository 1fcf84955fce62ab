// `reduction(max:m)` over values all below -1e30. The identity of `max`
// must be -inf: a finite stand-in such as -1e30 wins over every element
// and becomes the answer. gcc 12 prints m = -1e+31.
// expect cpu: m                = -10000000000000000000000000000000
// expect run: m                = -10000000000000000000000000000000
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
double a[16];
double m;
void main() {
    int i;
    for (i = 0; i < 16; i++) { a[i] = -1.0e31 - i; }
    m = -1.0e40;
    #pragma acc parallel loop reduction(max:m)
    for (i = 0; i < 16; i++) { if (a[i] > m) m = a[i]; }
}
