// `if(n > 100)` is true: the kernel offloads and moves `a` both ways.
// expect run: exit 0
// expect run: out              = 1
// expect run: transfers         : 2 ops, 512 bytes
double a[32];
double out;
int n;
void main() {
    int j;
    n = 1000;
    #pragma acc kernels loop gang if(n > 100)
    for (j = 0; j < 32; j++) { a[j] = 1.0; }
    out = a[7];
}
