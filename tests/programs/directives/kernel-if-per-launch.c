// The `if` condition is re-evaluated at every launch: the same kernel
// offloads only in the two iterations where `k >= 2`, each copying `a` in
// and out once.
// expect run: exit 0
// expect run: a                = [4.000000, 4.000000, 4.000000, 4.000000, 4.000000, 4.000000, …] (len 16)
// expect run: transfers         : 4 ops, 512 bytes
double a[16];
int k;
void main() {
    int it; int j;
    for (it = 0; it < 4; it++) {
        k = it;
        #pragma acc kernels loop gang if(k >= 2)
        for (j = 0; j < 16; j++) { a[j] = a[j] + 1.0; }
    }
}
