// The same checksum assertion on the racy kernel of
// race-flagged-without-bounds.c. The race breaks the checksum, and the
// assertion catches it even with a sky-high comparison tolerance: the
// §III-C automatic bug detection that needs no user interaction.
// expect verify absTol=1e9,relTol=1e9: exit 1
// expect verify absTol=1e9,relTol=1e9: main_kernel0         launches=1    mismatched=0        max|err|=0.000e0      asserts_failed=1   FAIL
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify assert_checksum(a, 2080.0, 0.5)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = tmp + 1.0; }
}
