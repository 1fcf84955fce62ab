// Integer and double operators, with the values gcc 12 prints for the same
// statements (`cc -O0 -fwrapv`): `/` truncates toward zero, `%` takes the
// sign of the dividend, `>>` of a negative value is arithmetic, a `long`
// shift reaches bit 62, doubles round as IEEE binary64, a cast to `long`
// truncates, and an `int` operand becomes a `double` only where the other
// operand is one. Each form runs once in host code (the scalars) and once
// inside a parallel loop (element i of `r` and `f`), so both the host and
// the device interpreter are judged.
// expect cpu: r                = [-3.000000, -1.000000, 1.000000, -4.000000, 4611686018427387904.000000, 1.000000] (len 6)
// expect cpu: f                = [0.333333, 0.300000, 3.000000, 3.500000, 5.551115, 0.500000] (len 6)
// expect cpu: quot             = -3
// expect cpu: rem_neg          = -1
// expect cpu: rem_pos          = 1
// expect cpu: shr              = -4
// expect cpu: shl              = 4611686018427387904
// expect cpu: gt               = 1
// expect cpu: third            = 0.3333333333333333
// expect cpu: sum              = 0.30000000000000004
// expect cpu: int_first        = 3
// expect cpu: promoted         = 3.5
// expect cpu: residue          = 5.551115123125783
// expect cpu: quot_plus_half   = 0.5
// expect cpu: truncated        = -7
// expect run: r                = [-3.000000, -1.000000, 1.000000, -4.000000, 4611686018427387904.000000, 1.000000] (len 6)
// expect run: f                = [0.333333, 0.300000, 3.000000, 3.500000, 5.551115, 0.500000] (len 6)
// expect run: quot             = -3
// expect run: rem_neg          = -1
// expect run: rem_pos          = 1
// expect run: shr              = -4
// expect run: shl              = 4611686018427387904
// expect run: gt               = 1
// expect run: third            = 0.3333333333333333
// expect run: sum              = 0.30000000000000004
// expect run: int_first        = 3
// expect run: promoted         = 3.5
// expect run: residue          = 5.551115123125783
// expect run: quot_plus_half   = 0.5
// expect run: truncated        = -7
// expect cpu: exit 0
// expect run: exit 0
long r[6];
double f[6];
long one;
long quot;
long rem_neg;
long rem_pos;
long shr;
long shl;
long gt;
double third;
double sum;
double int_first;
double promoted;
double residue;
double quot_plus_half;
long truncated;
void main() {
    int i;
    one = 1;
    quot = -7 / 2;
    rem_neg = -7 % 3;
    rem_pos = 7 % -3;
    shr = -16 >> 2;
    shl = one << 62;
    gt = (0.1 + 0.2) > 0.3;
    third = 1.0 / 3.0;
    sum = 0.1 + 0.2;
    int_first = 7 / 2 * 1.0;
    promoted = 7 / 2.0;
    residue = (0.1 + 0.2 - 0.3) * 1e17;
    quot_plus_half = 1 / 3 + 0.5;
    truncated = (long) (-7.9);
    #pragma acc parallel loop
    for (i = 0; i < 6; i++) {
        if (i == 0) { r[i] = -7 / 2; f[i] = 1.0 / 3.0; }
        if (i == 1) { r[i] = -7 % 3; f[i] = 0.1 + 0.2; }
        if (i == 2) { r[i] = 7 % -3; f[i] = 7 / 2 * 1.0; }
        if (i == 3) { r[i] = -16 >> 2; f[i] = 7 / 2.0; }
        if (i == 4) { r[i] = one << 62; f[i] = (0.1 + 0.2 - 0.3) * 1e17; }
        if (i == 5) { r[i] = (0.1 + 0.2) > 0.3; f[i] = 1 / 3 + 0.5; }
    }
}
