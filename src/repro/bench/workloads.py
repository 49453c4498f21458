"""The benchmark suite: six mini-SPECint92-style programs.

The paper evaluates on SPECint92 (compress, eqntott, xlisp, sc,
espresso, cc1).  The originals are proprietary C programs profiled with
reference inputs; here each benchmark is a hand-written mini-C program
that exercises the same *kind* of code the original is known for —
compression loops and bit twiddling, truth-table evaluation, an
interpreter dispatch loop, spreadsheet recomputation, cube/bitset
manipulation, and a compiler-ish tokenizer/evaluator — at a scale that
solves in seconds rather than hours.  DESIGN.md records the
substitution; EXPERIMENTS.md compares the resulting shapes with the
paper's.

Every program is deterministic, self-checking (returns a checksum) and
parameterised by its entry argument so dynamic behaviour can be scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Module
from ..lang import compile_program


@dataclass(frozen=True, slots=True)
class Benchmark:
    name: str
    source: str
    entry: str
    args: tuple[int, ...]
    #: reference checksum of running entry(args) symbolically
    expected: int | None = None


COMPRESS = Benchmark(
    name="compress",
    entry="main",
    args=(48,),
    source="""
int input[256];
int output[512];
int outlen;

int fill_input(int n, int seed) {
    int s = seed;
    for (int i = 0; i < n; i += 1) {
        s = s * 1103515 + 12345;
        int v = (s >> 8) & 255;
        if ((i & 7) < 3) { v = v & 15; }
        input[i] = v;
    }
    return s;
}

void emit(int code, int width) {
    output[outlen] = code & ((1 << width) - 1);
    outlen += 1;
}

int run_length(int pos, int n) {
    int v = input[pos];
    int len = 1;
    while (pos + len < n && input[pos + len] == v && len < 63) {
        len += 1;
    }
    return len;
}

int compress_block(int n) {
    int pos = 0;
    int codes = 0;
    outlen = 0;
    while (pos < n) {
        int len = run_length(pos, n);
        if (len > 2) {
            emit(256 + len, 9);
            emit(input[pos], 9);
            pos += len;
        } else {
            emit(input[pos], 9);
            pos += 1;
        }
        codes += 1;
    }
    return codes;
}

int checksum(void) {
    int h = 0;
    for (int i = 0; i < outlen; i += 1) {
        h = h * 31 + output[i];
        h = h ^ (h >> 16);
    }
    return h;
}

int window_hash(int n) {
    int h0 = 1;
    int h1 = 2;
    int h2 = 3;
    int h3 = 5;
    int h4 = 7;
    int h5 = 11;
    int h6 = 13;
    int h7 = 17;
    for (int i = 0; i < n; i += 1) {
        int v = input[i & 255];
        h0 = (h0 * 33 + v) & 65535;
        h1 = (h1 + (v << 1)) & 65535;
        h2 = h2 ^ (v * 3);
        h3 = (h3 + h0) & 65535;
        h4 = (h4 ^ h1) + 7;
        h5 = h5 + (h2 >> 2);
        h6 = (h6 * 5 + h3) & 65535;
        h7 = h7 ^ h4;
        emit((h0 ^ h7) & 511, 9);
    }
    return (h0 + h1 + h2 + h3 + h4 + h5 + h6 + h7) & 65535;
}

int main(int n) {
    int acc = fill_input(n, 7) & 1023;
    int codes = compress_block(n);
    int sig = window_hash(n);
    return acc + codes * 1000 + ((checksum() + sig) & 65535);
}
""",
)


EQNTOTT = Benchmark(
    name="eqntott",
    entry="main",
    args=(40,),
    source="""
short terms[128];
short table[256];

int popcount(int x) {
    int c = 0;
    while (x != 0) {
        c += x & 1;
        x = x >> 1;
    }
    return c;
}

int build_terms(int n, int seed) {
    int s = seed;
    for (int i = 0; i < n; i += 1) {
        s = s * 214013 + 2531011;
        terms[i] = (short)((s >> 7) & 255);
    }
    return n;
}

int eval_term(int term, int minterm) {
    int mask = term & 15;
    int want = (term >> 4) & 15;
    if ((minterm & mask) == (want & mask)) {
        return 1;
    }
    return 0;
}

int truth_table(int nterms) {
    int ones = 0;
    for (int m = 0; m < 16; m += 1) {
        int value = 0;
        for (int t = 0; t < nterms; t += 1) {
            if (eval_term(terms[t], m)) {
                value = 1;
                break;
            }
        }
        table[m] = (short)value;
        ones += value;
    }
    return ones;
}

int compare_rows(int a, int b) {
    int d = table[a] - table[b];
    if (d != 0) { return d; }
    return popcount(a) - popcount(b);
}

int sort_rows(void) {
    int swaps = 0;
    for (int i = 0; i < 15; i += 1) {
        for (int j = 0; j < 15 - i; j += 1) {
            if (compare_rows(j, j + 1) > 0) {
                short tmp = table[j];
                table[j] = table[j + 1];
                table[j + 1] = tmp;
                swaps += 1;
            }
        }
    }
    return swaps;
}

int vote(int n) {
    int c0 = 0;
    int c1 = 0;
    int c2 = 0;
    int c3 = 0;
    int c4 = 0;
    int c5 = 0;
    int c6 = 0;
    for (int i = 0; i < n; i += 1) {
        int t = terms[i & 127];
        int p = popcount(t);
        c0 += p;
        c1 ^= t;
        c2 += t & 15;
        c3 += (t >> 4) & 15;
        c4 = (c4 * 3 + p) & 4095;
        c5 += popcount(t ^ c1);
        c6 = (c6 + c0 + c2) & 8191;
    }
    return (c0 + c1 + c2 + c3 + c4 + c5 + c6) & 65535;
}

int main(int n) {
    build_terms(n, 3);
    int votes = vote(n);
    int ones = truth_table(n) + (votes & 7);
    int swaps = sort_rows();
    int h = 0;
    for (int i = 0; i < 16; i += 1) {
        h = h * 17 + table[i];
    }
    return ones * 10000 + swaps * 100 + (h & 63);
}
""",
)


XLISP = Benchmark(
    name="xlisp",
    entry="main",
    args=(60,),
    source="""
int car_[256];
int cdr_[256];
int tag_[256];
int freeptr;

int cons(int a, int d) {
    int cell = freeptr;
    freeptr += 1;
    car_[cell] = a;
    cdr_[cell] = d;
    tag_[cell] = 1;
    return cell;
}

int number(int v) {
    int cell = freeptr;
    freeptr += 1;
    car_[cell] = v;
    cdr_[cell] = 0;
    tag_[cell] = 0;
    return cell;
}

int is_pair(int cell) {
    return tag_[cell] == 1;
}

int list_length(int cell) {
    int n = 0;
    while (is_pair(cell)) {
        n += 1;
        cell = cdr_[cell];
    }
    return n;
}

int eval_cell(int cell, int depth) {
    if (depth > 20) { return 0; }
    if (!is_pair(cell)) {
        return car_[cell];
    }
    int op = car_[car_[cell]];
    int rest = cdr_[cell];
    int acc = eval_cell(car_[rest], depth + 1);
    rest = cdr_[rest];
    while (is_pair(rest)) {
        int v = eval_cell(car_[rest], depth + 1);
        if (op == 1) { acc += v; }
        else if (op == 2) { acc -= v; }
        else if (op == 3) { acc = acc * v; }
        else { acc = acc ^ v; }
        rest = cdr_[rest];
    }
    return acc;
}

int build_expr(int seed, int depth) {
    int s = seed * 69069 + 1;
    if (depth <= 0 || (s & 7) < 3) {
        return number((s >> 4) & 63);
    }
    int op = number(1 + ((s >> 6) & 3));
    int a = build_expr(s, depth - 1);
    int b = build_expr(s >> 3, depth - 1);
    return cons(op, cons(a, cons(b, number(0))));
}

int gc_mark(int root) {
    int marked = 0;
    int stack[64];
    int sp = 0;
    stack[sp] = root;
    sp = 1;
    while (sp > 0) {
        sp -= 1;
        int cell = stack[sp];
        if (tag_[cell] == 1 && sp < 62) {
            marked += 1;
            stack[sp] = car_[cell];
            stack[sp + 1] = cdr_[cell];
            sp += 2;
        }
    }
    return marked;
}

int sweep(int limit) {
    int pairs = 0;
    int atoms = 0;
    int carsum = 0;
    int cdrsum = 0;
    int depthacc = 0;
    int hash = 7;
    for (int c = 0; c < limit; c += 1) {
        int p = is_pair(c);
        pairs += p;
        atoms += 1 - p;
        carsum = (carsum + car_[c]) & 65535;
        cdrsum = (cdrsum ^ cdr_[c]) & 65535;
        depthacc += list_length(c) & 7;
        hash = (hash * 31 + carsum + pairs) & 65535;
    }
    return (pairs + atoms + carsum + cdrsum + depthacc + hash) & 65535;
}

int main(int n) {
    freeptr = 0;
    int total = 0;
    for (int i = 0; i < n; i += 1) {
        if (freeptr > 180) { freeptr = 0; }
        int e = build_expr(i * 13 + 5, 3);
        total += eval_cell(e, 0) & 255;
        total += list_length(e);
        total += gc_mark(e);
    }
    total += sweep(freeptr) & 4095;
    return total;
}
""",
)


SC = Benchmark(
    name="sc",
    entry="main",
    args=(24,),
    source="""
int grid[64];
short kind[64];
int deps[64];

int cell_index(int row, int col) {
    return row * 8 + col;
}

int formula_value(int cell) {
    int k = kind[cell];
    int d = deps[cell];
    int a = grid[d & 63];
    int b = grid[(d >> 6) & 63];
    if (k == 1) { return a + b; }
    if (k == 2) { return a - b; }
    if (k == 3) { return a * b; }
    if (k == 4) {
        int div = b;
        if (div == 0) { div = 1; }
        return a / div;
    }
    return grid[cell];
}

int setup(int seed) {
    int s = seed;
    for (int r = 0; r < 8; r += 1) {
        for (int c = 0; c < 8; c += 1) {
            int idx = cell_index(r, c);
            s = s * 75 + 74;
            if (r == 0 || c == 0) {
                kind[idx] = 0;
                grid[idx] = (s >> 3) & 31;
            } else {
                kind[idx] = (short)(1 + ((s >> 5) & 3));
                int up = cell_index(r - 1, c);
                int left = cell_index(r, c - 1);
                deps[idx] = up | (left << 6);
            }
        }
    }
    return s;
}

int recompute(void) {
    int changed = 0;
    for (int r = 0; r < 8; r += 1) {
        for (int c = 0; c < 8; c += 1) {
            int idx = cell_index(r, c);
            int v = formula_value(idx);
            if (v != grid[idx]) {
                grid[idx] = v;
                changed += 1;
            }
        }
    }
    return changed;
}

int column_sum(int col) {
    int sum = 0;
    for (int r = 0; r < 8; r += 1) {
        sum += grid[cell_index(r, col)];
    }
    return sum;
}

int stats(void) {
    int minv = 99999;
    int maxv = -99999;
    int sum = 0;
    int sumsq = 0;
    int evens = 0;
    int odds = 0;
    int colacc = 0;
    for (int i = 0; i < 64; i += 1) {
        int v = grid[i];
        if (v < minv) { minv = v; }
        if (v > maxv) { maxv = v; }
        sum += v;
        sumsq = (sumsq + v * v) & 1048575;
        if ((v & 1) == 0) { evens += 1; } else { odds += 1; }
        colacc = (colacc + column_sum(i & 7)) & 65535;
    }
    return (minv + maxv + sum + sumsq + evens + odds + colacc) & 65535;
}

int main(int n) {
    setup(11);
    int total = 0;
    for (int pass = 0; pass < n; pass += 1) {
        total += recompute();
        grid[cell_index(0, pass & 7)] = pass * 3;
    }
    total += stats() & 4095;
    for (int c = 0; c < 8; c += 1) {
        total += column_sum(c) & 255;
    }
    return total;
}
""",
)


ESPRESSO = Benchmark(
    name="espresso",
    entry="main",
    args=(32,),
    source="""
int cubes[128];
int ncubes;

int cube_and(int a, int b) {
    return a & b;
}

int cube_distance(int a, int b) {
    int x = a ^ b;
    int d = 0;
    while (x != 0) {
        d += x & 1;
        x = x >> 1;
    }
    return d;
}

int add_cube(int c) {
    for (int i = 0; i < ncubes; i += 1) {
        if (cubes[i] == c) { return 0; }
    }
    cubes[ncubes] = c;
    ncubes += 1;
    return 1;
}

int generate(int n, int seed) {
    int s = seed;
    ncubes = 0;
    for (int i = 0; i < n; i += 1) {
        s = s * 1664525 + 1013904223;
        add_cube((s >> 9) & 4095);
    }
    return ncubes;
}

int merge_pass(void) {
    int merged = 0;
    for (int i = 0; i < ncubes; i += 1) {
        for (int j = i + 1; j < ncubes; j += 1) {
            if (cube_distance(cubes[i], cubes[j]) == 1) {
                cubes[i] = cube_and(cubes[i], cubes[j]);
                cubes[j] = cubes[ncubes - 1];
                ncubes -= 1;
                merged += 1;
            }
        }
    }
    return merged;
}

int cover_weight(void) {
    int w = 0;
    for (int i = 0; i < ncubes; i += 1) {
        int c = cubes[i];
        w += cube_distance(c, 0);
    }
    return w;
}

int pairwise(void) {
    int near = 0;
    int far = 0;
    int dtotal = 0;
    int dmin = 9999;
    int dmax = 0;
    int mix = 1;
    int wide = 0;
    for (int i = 0; i < ncubes; i += 1) {
        for (int j = i + 1; j < ncubes; j += 1) {
            int d = cube_distance(cubes[i], cubes[j]);
            dtotal += d;
            if (d < 3) { near += 1; } else { far += 1; }
            if (d < dmin) { dmin = d; }
            if (d > dmax) { dmax = d; }
            mix = (mix * 7 + d + near) & 65535;
            wide += cube_distance(cubes[i] | cubes[j], 0);
        }
    }
    return (near + far + dtotal + dmin + dmax + mix + wide) & 65535;
}

int main(int n) {
    int count = generate(n, 77);
    int merged = 0;
    int pass = 0;
    while (pass < 4) {
        merged += merge_pass();
        pass += 1;
    }
    int pw = pairwise();
    return count * 10000 + merged * 100 + ((cover_weight() + pw) & 63);
}
""",
)


CC1 = Benchmark(
    name="cc1",
    entry="main",
    args=(36,),
    source="""
char src[256];
int tokens[128];
int ntokens;
int values[128];

int fill_source(int n, int seed) {
    int s = seed;
    for (int i = 0; i < n; i += 1) {
        s = s * 22695477 + 1;
        int r = (s >> 16) & 7;
        char ch = 48;
        if (r < 4) { ch = (char)(48 + ((s >> 3) & 7)); }
        else if (r == 4) { ch = 43; }
        else if (r == 5) { ch = 45; }
        else if (r == 6) { ch = 42; }
        else { ch = 47; }
        src[i] = ch;
    }
    src[0] = 49;
    return n;
}

int is_digit(char c) {
    return c >= 48 && c <= 57;
}

int tokenize(int n) {
    ntokens = 0;
    int i = 0;
    int expect_value = 1;
    while (i < n && ntokens < 126) {
        char c = src[i];
        if (is_digit(c)) {
            int v = 0;
            while (i < n && is_digit(src[i])) {
                v = v * 10 + (src[i] - 48);
                i += 1;
            }
            if (expect_value) {
                tokens[ntokens] = 0;
                values[ntokens] = (v & 63) + 1;
                ntokens += 1;
                expect_value = 0;
            }
        } else {
            if (!expect_value) {
                tokens[ntokens] = c;
                ntokens += 1;
                expect_value = 1;
            }
            i += 1;
        }
    }
    if (expect_value && ntokens > 0) {
        ntokens -= 1;
    }
    return ntokens;
}

int precedence(int op) {
    if (op == 42 || op == 47) { return 2; }
    if (op == 43 || op == 45) { return 1; }
    return 0;
}

int apply(int op, int a, int b) {
    if (op == 43) { return a + b; }
    if (op == 45) { return a - b; }
    if (op == 42) { return a * b; }
    int d = b;
    if (d == 0) { d = 1; }
    return a / d;
}

int evaluate(void) {
    int vals[64];
    int ops[64];
    int vsp = 0;
    int osp = 0;
    for (int i = 0; i < ntokens; i += 1) {
        if (tokens[i] == 0) {
            vals[vsp] = values[i];
            vsp += 1;
        } else {
            int op = tokens[i];
            while (osp > 0 && precedence(ops[osp - 1]) >= precedence(op)
                   && vsp >= 2) {
                int b = vals[vsp - 1];
                int a = vals[vsp - 2];
                vsp -= 2;
                vals[vsp] = apply(ops[osp - 1], a, b) & 65535;
                vsp += 1;
                osp -= 1;
            }
            ops[osp] = op;
            osp += 1;
        }
    }
    while (osp > 0 && vsp >= 2) {
        int b = vals[vsp - 1];
        int a = vals[vsp - 2];
        vsp -= 2;
        vals[vsp] = apply(ops[osp - 1], a, b) & 65535;
        vsp += 1;
        osp -= 1;
    }
    if (vsp > 0) { return vals[0]; }
    return 0;
}

int symbol_stats(void) {
    int nums = 0;
    int adds = 0;
    int subs = 0;
    int muls = 0;
    int divs = 0;
    int weight = 0;
    int hash = 3;
    int prec = 0;
    for (int i = 0; i < ntokens; i += 1) {
        int t = tokens[i];
        if (t == 0) { nums += 1; weight += values[i]; }
        else if (t == 43) { adds += 1; }
        else if (t == 45) { subs += 1; }
        else if (t == 42) { muls += 1; }
        else { divs += 1; }
        prec += precedence(t);
        hash = (hash * 131 + t + weight + prec) & 1048575;
    }
    return (nums + adds + subs + muls + divs + weight + hash) & 65535;
}

int main(int n) {
    fill_source(n, 5);
    int count = tokenize(n);
    int value = evaluate();
    int st = symbol_stats();
    return count * 100000 + ((value + st) & 65535);
}
""",
)


ALL_BENCHMARKS: tuple[Benchmark, ...] = (
    COMPRESS, EQNTOTT, XLISP, SC, ESPRESSO, CC1,
)

BY_NAME = {b.name: b for b in ALL_BENCHMARKS}


def load_benchmark(name: str) -> tuple[Benchmark, Module]:
    """Compile one benchmark by name."""
    bench = BY_NAME[name]
    return bench, compile_program(bench.source, bench.name)


def load_all() -> list[tuple[Benchmark, Module]]:
    return [load_benchmark(b.name) for b in ALL_BENCHMARKS]
