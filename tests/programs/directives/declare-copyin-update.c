// `declare copyin(table)` snapshots the entry values (zeros, since the
// host fills `table` afterwards); an explicit `update device` then
// refreshes the resident copy. Declared data is present, so the update is
// legal without any data region. Uploads: the snapshot, the update and
// `a` at each of the three launches.
// expect run: exit 0
// expect run: out              = 6
// expect run: transfers         : 8 ops, 1024 bytes
double table[16];
double a[16];
double out;
void main() {
    int k; int j;
    #pragma acc declare copyin(table)
    for (j = 0; j < 16; j++) { table[j] = 2.0; }
    #pragma acc update device(table)
    for (k = 0; k < 3; k++) {
        #pragma acc kernels loop gang
        for (j = 0; j < 16; j++) { a[j] = table[j] * (double) (k + 1); }
    }
    out = a[0];
}
