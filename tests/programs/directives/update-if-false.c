// `update host(a) if(n)` with `n == 0` is a no-op: the host copy keeps
// its value, although the device wrote 9.0.
// expect run: exit 0
// expect run: out              = 1
double a[16];
double out;
int n;
void main() {
    int j;
    n = 0;
    for (j = 0; j < 16; j++) { a[j] = 1.0; }
    #pragma acc data copyin(a)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { a[j] = 9.0; }
        #pragma acc update host(a) if(n)
    }
    out = a[0];
}
