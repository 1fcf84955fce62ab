// The racy kernel of race-flagged-without-bounds.c under
// `#pragma openarc verify bounds(a, 0.0, 200.0)`: every diverging value
// lies inside the band, so verification suppresses the report (the §III-C
// false-positive-avoidance use case). The race itself is still real.
// expect verify: exit 0
// expect verify: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=0   ok
// expect run: exit 1
// expect run: data races        : 1
// expect run:   main_kernel0: __cell_tmp (127 conflicts)
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify bounds(a, 0.0, 200.0)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = tmp + 1.0; }
}
