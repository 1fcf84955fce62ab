// A real race: `tmp` is read before it is written in the loop body, so
// the translator can neither privatize it nor recognize a reduction, and
// every thread shares one device cell. Sequentially a[j] = j + 1; on the
// device a thread may read another thread's tmp. Kernel verification
// flags the kernel.
// expect verify: exit 1
// expect verify: main_kernel0         launches=1    mismatched=63       max|err|=6.300e1      asserts_failed=0   FAIL
// expect run: exit 1
// expect run: data races        : 1
// expect run:   main_kernel0: __cell_tmp (127 conflicts)
double a[64];
double tmp;
void main() {
    int j;
    #pragma acc kernels loop gang
    for (j = 0; j < 64; j++) { tmp = tmp * 0.0 + (double) j; a[j] = tmp + 1.0; }
}
