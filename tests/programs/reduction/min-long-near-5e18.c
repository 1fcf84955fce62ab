// `reduction(min:m)` over `long` values near 5e18. The identity of `min`
// must be i64::MAX: i64::MAX / 2 = 4611686018427387903 is below every
// element and becomes the answer. gcc 12 prints m = 4999999999999999985.
// expect cpu: m                = 4999999999999999985
// expect run: m                = 4999999999999999985
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
long a[16];
long m;
void main() {
    int i;
    for (i = 0; i < 16; i++) { a[i] = 5000000000000000000 - i; }
    m = 9000000000000000000;
    #pragma acc parallel loop reduction(min:m)
    for (i = 0; i < 16; i++) { if (a[i] < m) m = a[i]; }
}
