// Class (iii) of §III-B: `scratch` lives only on the GPU (create plus
// kernel-to-kernel use). The optimized pattern produces no findings, and
// scratch moves no bytes: one upload of inp, one download of outp.
// expect check: exit 0
// expect check: no memory-transfer issues found
// expect run: exit 0
// expect run: outp             = [1.000000, 3.000000, 5.000000, 7.000000, 9.000000, 11.000000, …] (len 32)
// expect run: transfers         : 2 ops, 512 bytes
double inp[32];
double scratch[32];
double outp[32];
double sum;
void main() {
    int j;
    for (j = 0; j < 32; j++) { inp[j] = (double) j; }
    #pragma acc data copyin(inp) create(scratch) copyout(outp)
    {
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { scratch[j] = inp[j] * 2.0; }
        #pragma acc kernels loop gang
        for (j = 0; j < 32; j++) { outp[j] = scratch[j] + 1.0; }
    }
    sum = outp[0] + outp[31];
}
