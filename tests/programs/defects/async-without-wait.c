// defect: Async completes at its `wait` (ROADMAP.md)
// The host reads `a` while `update host(a) async(1)` may still be in
// flight: the read comes before `wait(1)`, so on a GPU it races the
// transfer. Today an async transfer applies its data at issue, so `check`
// reports only a redundant copy-out, `run` prints the finished value and
// `verify` says ok.
// expect check: exit 1
double a[16];
double out;
void main() {
    int i;
    for (i = 0; i < 16; i++) { a[i] = 1.0; }
    #pragma acc data copy(a)
    {
        #pragma acc kernels loop gang async(1)
        for (i = 0; i < 16; i++) { a[i] = a[i] + 1.0; }
        #pragma acc update host(a) async(1)
        out = a[3];
        #pragma acc wait(1)
    }
}
