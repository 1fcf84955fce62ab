// `-(i64::MIN)` wraps in the constant evaluator exactly as at run time.
// expect cpu: exit 0
// expect cpu: g                = -9223372036854775808
// expect cpu: h                = -9223372036854775808
int g = -(-9223372036854775807 - 1);
int h;
void main() { h = -g; }
