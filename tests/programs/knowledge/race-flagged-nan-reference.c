// `race-flagged-without-bounds.c` with a NaN on one side of the
// comparison. Sequentially tmp == j, so a[j] = sqrt(0) + sqrt(0) = 0 (gcc
// agrees); on the device a thread may read another thread's tmp, and one
// of the two square roots is of a negative number, NaN. A NaN matches only
// a NaN, so kernel verification counts each one and reports the error as
// infinite.
// expect cpu: a                = [0.000000, 0.000000, 0.000000, 0.000000, 0.000000, 0.000000, …] (len 64)
// expect run: a                = [NaN, NaN, NaN, NaN, NaN, NaN, …] (len 64)
// expect verify: exit 1
// expect verify: main_kernel0         launches=1    mismatched=63       max|err|=inf          asserts_failed=0   FAIL
double a[64];
double tmp;
void main() {
    int j;
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = sqrt(tmp - j) + sqrt(j - tmp); }
}
