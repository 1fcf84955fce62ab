// A `bounds` band whose low end is above its high end is a translate
// error, so every command refuses the program.
// expect run: exit 2
// expect run: translation failed: error: bounds(a, 5, 1): lower bound exceeds upper (line 10)
// expect verify: exit 2
// expect verify: translation failed: error: bounds(a, 5, 1): lower bound exceeds upper (line 10)
double a[4];
void main() {
    int j;
    #pragma openarc verify bounds(a, 5.0, 1.0)
    #pragma acc kernels loop gang
    for (j = 0; j < 4; j++) { a[j] = 1.0; }
}
