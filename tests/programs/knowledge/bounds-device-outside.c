// The racy kernel of race-flagged-without-bounds.c under
// `#pragma openarc verify bounds(a, 0.0, 32.0)`. The sequential values
// a[j] = j + 1 lie inside the band for j < 32 only, and every racy device
// value (64, the last writer's j plus one) lies outside it. A divergence
// is absolved only when both sides are inside the band, so all 63
// diverging elements are reported, with the largest error 63 (a[0]): the
// rule tests the device value as well as the CPU one.
// expect verify: exit 1
// expect verify: main_kernel0         launches=1    mismatched=63       max|err|=6.300e1      asserts_failed=0   FAIL
double a[64];
double tmp;
void main() {
    int j;
    #pragma openarc verify bounds(a, 0.0, 32.0)
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = tmp + 1.0; }
}
