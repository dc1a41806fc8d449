/* Native kernels of fpsat, bit for bit with the Python reference paths:
 *   fpsat_eval       ObjectiveProgram.evaluate on one point
 *   fpsat_eval_many  ObjectiveProgram.evaluate_many: rows up to the first zero
 *   fpsat_doubles    Xoshiro256Plus.doubles
 *   fpsat_gauss      optimizers._gauss_rows (Box-Muller on those doubles)
 * fpsat/kernels.py compiles this file once with KERNEL_CFLAGS and calls it
 * through ctypes. A program is the immutable image that
 * objective._Compiler emits (all integers int32, all values binary64):
 *   header    nregs, ntape, nvars, nlits, out, dim, 0, 0
 *   template  nregs initial register values
 *   penalties nlits: 1.0 where the literal's relation excludes equality
 *   tape      ntape x (code, dst, a, b, c); c is a literal index for DIST
 *   vars      nvars x (reg, x index, is32)
 *   literals  nlits x (comparison, negated, width)
 * A binary32 register holds a binary64 value that is exact in binary32.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* BEGIN distance rule */
static double theta32(float a, float b) {
    if (isnan(a) || isnan(b)) return 1.0;
    if (a == b) return 0.0;
    uint32_t ua, ub;
    memcpy(&ua, &a, 4); memcpy(&ub, &b, 4);
    int64_t oa = (ua >> 31) ? -(int64_t)(ua & 0x7fffffffu) : (int64_t)ua;
    int64_t ob = (ub >> 31) ? -(int64_t)(ub & 0x7fffffffu) : (int64_t)ub;
    int64_t d = oa > ob ? oa - ob : ob - oa;
    return (double)d;
}

static double theta64(double a, double b) {
    if (isnan(a) || isnan(b)) return 1.0;
    if (a == b) return 0.0;
    uint64_t ua, ub;
    memcpy(&ua, &a, 8); memcpy(&ub, &b, 8);
    /* offset-binary so the unsigned difference is the ordered distance */
    uint64_t oa = (ua >> 63) ? (0x8000000000000000ull - (ua & 0x7fffffffffffffffull))
                             : (0x8000000000000000ull + ua);
    uint64_t ob = (ub >> 63) ? (0x8000000000000000ull - (ub & 0x7fffffffffffffffull))
                             : (0x8000000000000000ull + ub);
    uint64_t d = oa > ob ? oa - ob : ob - oa;
    return (double)d;
}

/* zero-propagating product: a satisfied literal zeroes its clause even if
 * other distances have overflowed to infinity */
static double mulz(double acc, double d) {
    return (acc == 0.0 || d == 0.0) ? 0.0 : acc * d;
}
/* END distance rule */

enum { ADD32, SUB32, MUL32, DIV32, ADD64, SUB64, MUL64, DIV64,
       NEG, ABS, SELECT, DIST, MULZ };
enum { LT, LEQ, GT, GEQ, EQ, NEQ };  /* objective._CMP_CODE */

typedef struct { int32_t nregs, ntape, nvars, nlits, out, dim, pad[2]; } header;

/* One evaluation into the scratch registers r; the image is read with
 * memcpy, so it may sit at any alignment. */
static double run(const char *image, const header *h, const double *x, double *r) {
    const char *penalties = image + sizeof *h + 8 * (size_t)h->nregs;
    const char *tape = penalties + 8 * (size_t)h->nlits;
    const char *vars = tape + 20 * (size_t)h->ntape;
    const char *lits = vars + 12 * (size_t)h->nvars;
    memcpy(r, image + sizeof *h, 8 * (size_t)h->nregs);
    for (int32_t i = 0; i < h->nvars; i++) {
        int32_t v[3];
        memcpy(v, vars + 12 * (size_t)i, 12);
        r[v[0]] = v[2] ? (double)(float)x[v[1]] : x[v[1]];
    }
    for (int32_t i = 0; i < h->ntape; i++) {
        int32_t in[5];
        memcpy(in, tape + 20 * (size_t)i, 20);
        double a = r[in[2]], b = r[in[3]];
        double *d = &r[in[1]];
        switch (in[0]) {
        case ADD32: *d = (float)(a + b); break;
        case SUB32: *d = (float)(a - b); break;
        case MUL32: *d = (float)(a * b); break;
        case DIV32: *d = (float)(a / b); break;
        case ADD64: *d = a + b; break;
        case SUB64: *d = a - b; break;
        case MUL64: *d = a * b; break;
        case DIV64: *d = a / b; break;
        case NEG: *d = -a; break;
        case ABS: *d = fabs(a); break;
        case SELECT: *d = a == 0.0 ? b : r[in[4]]; break;
        case MULZ: *d = mulz(a, b); break;
        default: {  /* DIST */
            int32_t lit[3];
            double penalty;
            memcpy(lit, lits + 12 * (size_t)in[4], 12);
            memcpy(&penalty, penalties + 8 * (size_t)in[4], 8);
            int holds;
            switch (lit[0]) {
            case LT: holds = a < b; break;
            case LEQ: holds = a <= b; break;
            case GT: holds = a > b; break;
            case GEQ: holds = a >= b; break;
            case EQ: holds = a == b; break;
            default: holds = a != b; break;
            }
            if (holds != lit[1])
                *d = 0.0;
            else
                *d = (lit[2] == 32 ? theta32((float)a, (float)b) : theta64(a, b)) + penalty;
        }
        }
    }
    return r[h->out];
}

/* Registers live on the stack up to this many, else on the heap. */
#define STACK_REGS 512

/* The objective at x; -1.0 if the registers cannot be allocated. */
double fpsat_eval(const char *image, const double *x) {
    header h;
    double stack[STACK_REGS];
    memcpy(&h, image, sizeof h);
    double *r = h.nregs <= STACK_REGS ? stack : malloc(8 * (size_t)h.nregs);
    if (r == NULL) return -1.0;
    double value = run(image, &h, x, r);
    if (r != stack) free(r);
    return value;
}

/* The objective at the m rows of X (row-major, dim columns) into out, up
 * to and including the first zero; returns how many rows were evaluated,
 * or -1 if the registers cannot be allocated. */
int fpsat_eval_many(const char *image, const double *X, int m, double *out) {
    header h;
    double stack[STACK_REGS];
    memcpy(&h, image, sizeof h);
    double *r = h.nregs <= STACK_REGS ? stack : malloc(8 * (size_t)h.nregs);
    if (r == NULL) return -1;
    int k = 0;
    while (k < m) {
        out[k] = run(image, &h, X + (size_t)k * (size_t)h.dim, r);
        if (out[k++] == 0.0) break;
    }
    if (r != stack) free(r);
    return k;
}

/* xoshiro256+ (Blackman & Vigna), one step of the state s[4] */
static uint64_t next_u64(uint64_t *s) {
    uint64_t result = s[0] + s[3];
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    return result;
}

/* uniform binary64 in [0, 1) from the top 53 bits */
static double next_double(uint64_t *s) {
    return (double)(next_u64(s) >> 11) * 0x1.0p-53;
}

void fpsat_doubles(uint64_t *s, double *out, int k) {
    for (int i = 0; i < k; i++) out[i] = next_double(s);
}

/* k (even) standard normal deviates: each pair of doubles (u, v) gives
 * r cos(2 pi v) then r sin(2 pi v), r = sqrt(-2 log(1 - u)), with libm's
 * log, cos and sin, which Python's math module calls too (gcc may merge
 * the last two into glibc's sincos, which runs the same code). */
void fpsat_gauss(uint64_t *s, double *out, int k) {
    for (int i = 0; i + 1 < k; i += 2) {
        double u = next_double(s);
        double v = next_double(s);
        double r = sqrt(-2.0 * log(1.0 - u));
        double angle = 0x1.921fb54442d18p+2 * v;  /* 2.0 * math.pi */
        out[i] = r * cos(angle);
        out[i + 1] = r * sin(angle);
    }
}
