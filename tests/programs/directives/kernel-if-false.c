// `if(n > 100)` is false: the kernel runs on the host, with no device
// traffic at all, and the work still happens.
// expect run: exit 0
// expect run: out              = 1
// expect run: transfers         : 0 ops, 0 bytes
double a[32];
double out;
int n;
void main() {
    int j;
    n = 10;
    #pragma acc kernels loop gang if(n > 100)
    for (j = 0; j < 32; j++) { a[j] = 1.0; }
    out = a[7];
}
