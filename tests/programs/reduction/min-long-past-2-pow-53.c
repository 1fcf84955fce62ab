// `reduction(min:m)` over `long` values 4e18 - i. Above 2^53 neighbouring
// integers share one double, so the fold must compare two integers as
// integers: compared as doubles, all sixteen partials tie and the first
// one wins. gcc 12 prints m = 3999999999999999985.
// expect cpu: m                = 3999999999999999985
// expect run: m                = 3999999999999999985
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
long a[16];
long m;
void main() {
    int i;
    for (i = 0; i < 16; i++) { a[i] = 4000000000000000000 - i; }
    m = 4100000000000000000;
    #pragma acc parallel loop reduction(min:m)
    for (i = 0; i < 16; i++) { if (a[i] < m) m = a[i]; }
}
