// `race-flagged-without-bounds.c` with an infinite reference.
// Sequentially tmp == j, so a[j] = 1.0 / 0.0 = inf (gcc agrees); on the
// device a thread may read another thread's tmp and divide by a nonzero
// difference. An infinity matches only an equal infinity, so kernel
// verification counts each finite device value and reports the error as
// infinite.
// expect cpu: a                = [inf, inf, inf, inf, inf, inf, …] (len 64)
// expect run: a                = [0.015873, 0.016129, 0.016393, 0.016667, 0.016949, 0.017241, …] (len 64)
// expect verify: exit 1
// expect verify: main_kernel0         launches=1    mismatched=63       max|err|=inf          asserts_failed=0   FAIL
double a[64];
double tmp;
void main() {
    int j;
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = 1.0 / (tmp - j); }
}
