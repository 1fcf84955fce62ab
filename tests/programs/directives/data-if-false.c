// An inactive data region (`if(n > 100)` false) maps nothing; the kernel
// inside falls back to its own default copy policy, so the host still
// sees the result and `a` moves in and out once.
// expect run: exit 0
// expect run: out              = 6
// expect run: transfers         : 2 ops, 512 bytes
double a[32];
double out;
int n;
void main() {
    int j;
    n = 1;
    for (j = 0; j < 32; j++) { a[j] = 2.0; }
    #pragma acc data if(n > 100) copyin(a)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { a[j] = a[j] * 3.0; }
    }
    out = a[0];
}
