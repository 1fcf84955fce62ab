// A prefix sum: each iteration reads the one before, so the loop must not
// run in parallel. Every translating command refuses it (exit 2) when
// `seq` sits on a `loop` directive of the same statement.
// expect cpu: exit 2
// expect cpu: translation failed: error: `loop seq` on a compute construct's own loop is unsupported (line 19)
// expect run: exit 2
// expect run: translation failed: error: `loop seq` on a compute construct's own loop is unsupported (line 19)
// expect check: exit 2
// expect check: translation failed: error: `loop seq` on a compute construct's own loop is unsupported (line 19)
// expect verify: exit 2
// expect verify: translation failed: error: `loop seq` on a compute construct's own loop is unsupported (line 19)
double a[64];
double out;
void main() {
    int i;
    for (i = 0; i < 64; i++) { a[i] = 1.0; }
    #pragma acc kernels copy(a)
    #pragma acc loop seq
    for (i = 1; i < 64; i++) { a[i] = a[i-1] + a[i]; }
    out = a[63];
}
