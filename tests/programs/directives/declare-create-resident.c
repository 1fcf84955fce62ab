// `declare create(scratch)` keeps scratch resident for the whole run: it
// is allocated once and never transferred. `inp` re-maps at each of the
// eight launches, uploading eight times and downloading four times.
// expect run: exit 0
// expect run: out              = 7
// expect run: transfers         : 12 ops, 3072 bytes
double scratch[32];
double inp[32];
double out;
void main() {
    int k; int j;
    for (j = 0; j < 32; j++) { inp[j] = 1.0; }
    #pragma acc declare create(scratch)
    for (k = 0; k < 4; k++) {
        #pragma acc kernels loop gang copyin(inp)
        for (j = 0; j < 32; j++) { scratch[j] = inp[j] + (double) k; }
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { inp[j] = scratch[j]; }
    }
    out = inp[0];
}
