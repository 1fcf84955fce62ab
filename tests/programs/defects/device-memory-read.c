// defect: Device memory is undefined until written (ROADMAP.md)
// A `copyout(a)` kernel reads `a[i]`, which nothing has written on the
// device: on a GPU the device copy is undefined after allocation. Today
// every location starts not-stale and allocations are zero-filled, so
// `check` is clean, `run` equals `cpu` and `verify` says ok.
// expect check: exit 1
double a[16];
double out;
void main() {
    int i;
    #pragma acc kernels loop gang copyout(a)
    for (i = 0; i < 16; i++) { a[i] = a[i] + 1.0; }
    out = a[3];
}
