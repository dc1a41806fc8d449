/* Native kernels of fpsat, bit for bit with the Python reference paths:
 *   fpsat_eval       ObjectiveProgram.evaluate on one point
 *   fpsat_race_*     a race of whole runs of optimizers.basin_hopping,
 *                    crs2_minimize and isres_minimize, each job on a
 *                    pthread of its own or in the calling thread
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
#define _GNU_SOURCE  /* pthreads, CPU affinity, clock_gettime, posix_memalign */
#include <errno.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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

/* optimizers._gauss_rows: k (even) standard normal deviates. Each pair
 * of doubles (u, v) gives r cos(2 pi v) then r sin(2 pi v), with
 * r = sqrt(-2 log(1 - u)), and libm's log, cos and sin, which Python's
 * math module calls too (gcc may merge the last two into glibc's sincos,
 * which runs the same code). */
static void gauss(uint64_t *s, double *out, size_t k) {
    for (size_t i = 0; i + 1 < k; i += 2) {
        double u = next_double(s);
        double v = next_double(s);
        double r = sqrt(-2.0 * log(1.0 - u));
        double angle = 0x1.921fb54442d18p+2 * v;  /* 2.0 * math.pi */
        out[i] = r * cos(angle);
        out[i + 1] = r * sin(angle);
    }
}

/* ------------------------------------------------------------------------
 * Whole runs of basin hopping, CRS2 and ISRES: the Python minimizers of
 * optimizers.py, statement for statement, with the same operations in
 * the same order. An exception of the Python code (_Stop) is a longjmp
 * back to dispatch.
 * ------------------------------------------------------------------------ */

enum { ZERO_FOUND, BUDGET_EXHAUSTED, CANCELLED };  /* a whole run's results */

/* optimizers._Run: the budget, the stop byte and the running best */
typedef struct {
    const char *image;
    header h;
    double *r;                           /* registers */
    int n;
    int64_t max_evals, evals;
    const volatile unsigned char *stop;  /* NULL: never stopped */
    double *best;                        /* best_x (n values), best_value */
    double *points;                      /* every evaluated point, or NULL */
    uint64_t *s;                         /* the generator's state */
    int reason;
    jmp_buf end;
} run_t;

static void finish(run_t *c, int reason) {
    c->reason = reason;
    longjmp(c->end, 1);
}

/* _Run.__call__ and _Run._take */
static double take(run_t *c, const double *x) {
    if (c->stop != NULL && *c->stop) finish(c, CANCELLED);
    if (c->evals >= c->max_evals) finish(c, BUDGET_EXHAUSTED);
    double v = run(c->image, &c->h, x, c->r);
    if (c->points != NULL)
        memcpy(c->points + (size_t)c->evals * (size_t)c->n, x, 8 * (size_t)c->n);
    c->evals++;
    if (c->evals == 1 || v < c->best[c->n]) {
        memcpy(c->best, x, 8 * (size_t)c->n);
        c->best[c->n] = v;
    }
    if (v == 0.0) finish(c, ZERO_FOUND);
    return v;
}

static int all_finite(const double *x, int n) {
    for (int i = 0; i < n; i++)
        if (!isfinite(x[i])) return 0;
    return 1;
}

/* Python's v ** 2, which calls libm's pow(|v|, 2.0); +inf where Python's
 * overflow would raise (optimizers._square). The exponent is read at run
 * time: gcc folds pow(x, 2.0) into x * x, which differs from glibc's pow
 * in the last bit on about one input in 2,400. */
static volatile double two = 2.0;

static double square(double v) {
    return pow(fabs(v), two);
}

/* _line_min's closure g over x + alpha * dir, with its best step */
typedef struct {
    run_t *c;
    const double *x, *dir;
    double f0, best_alpha, best_f;
    double *pt;
} line_t;

static double g(line_t *l, double alpha) {
    if (alpha == 0.0) return l->f0;
    int n = l->c->n;
    for (int i = 0; i < n; i++) l->pt[i] = l->x[i] + alpha * l->dir[i];
    if (!all_finite(l->pt, n)) return INFINITY;
    double v = take(l->c, l->pt);
    if (v != v) return INFINITY;
    if (v < l->best_f) {
        l->best_alpha = alpha;
        l->best_f = v;
    }
    return v;
}

static const double GOLD = 1.618033988749895, CGOLD = 0.3819660112501051;

/* _bracket's grow */
static double grow(line_t *l, double frm, double to_delta, double *fc) {
    double xc = frm + to_delta;
    *fc = g(l, xc);
    while (*fc == INFINITY && fabs(xc - frm) > 1e-20) {
        xc = frm + 0.5 * (xc - frm);
        *fc = g(l, xc);
    }
    return xc;
}

/* _bracket: xa, xb, xc into br[0..2] and fb into *fb_out */
static void bracket(line_t *l, double f0, double br[3], double *fb_out) {
    double xa = 0.0, fa = f0;
    double xb = 1.0, fb = g(l, 1.0);
    while (fb == INFINITY && fabs(xb) > 1e-20) {
        xb *= 0.5;
        fb = g(l, xb);
    }
    if (fb > fa) {
        double t = xa; xa = xb; xb = t;
        t = fa; fa = fb; fb = t;
    }
    double fc;
    double xc = grow(l, xb, GOLD * (xb - xa), &fc);
    for (int k = 0; k < 100; k++) {
        if (fc >= fb) break;
        xa = xb; fa = fb;
        xb = xc; fb = fc;
        xc = grow(l, xb, GOLD * (xb - xa), &fc);
    }
    br[0] = xa; br[1] = xb; br[2] = xc;
    *fb_out = fb;
}

/* _brent with tol 1e-11 and 64 iterations */
static void brent(line_t *l, double xa, double xb, double xc, double fb) {
    const double tol = 1e-11;
    double a, b;
    if (xa < xc) { a = xa; b = xc; } else { a = xc; b = xa; }
    double x = xb, w = xb, v = xb;
    double fx = fb, fw = fb, fv = fb;
    double d = 0.0, e = 0.0;
    for (int it = 0; it < 64; it++) {
        double m = 0.5 * (a + b);
        double tol1 = tol * fabs(x) + 1e-14;
        double tol2 = 2.0 * tol1;
        if (fabs(x - m) <= tol2 - 0.5 * (b - a)) return;
        int golden = 1;
        if (fabs(e) > tol1 && isfinite(fx) && isfinite(fw) && isfinite(fv)) {
            double r = (x - w) * (fx - fv);
            double q = (x - v) * (fx - fw);
            double p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if (q > 0.0) p = -p;
            q = fabs(q);
            double etemp = e;
            e = d;
            if (fabs(p) < fabs(0.5 * q * etemp) && q * (a - x) < p && p < q * (b - x)) {
                d = p / q;
                double u = x + d;
                if (u - a < tol2 || b - u < tol2) d = copysign(tol1, m - x);
                golden = 0;
            }
        }
        if (golden) {
            e = (x < m ? b : a) - x;
            d = CGOLD * e;
        }
        double u = x + (fabs(d) >= tol1 ? d : copysign(tol1, d));
        double fu = g(l, u);
        if (fu <= fx) {
            if (u < x) b = x; else a = x;
            v = w; w = x; x = u;
            fv = fw; fw = fx; fx = fu;
        } else {
            if (u < x) a = u; else b = u;
            if (fu <= fw || w == x) {
                v = w; w = u;
                fv = fw; fw = fu;
            } else if (fu <= fv || v == x || v == w) {
                v = u; fv = fu;
            }
        }
    }
}

/* _line_min: moves x to its best point along dir; returns its value */
static double line_min(run_t *c, double *x, const double *dir, double f0, double *pt) {
    line_t l = { c, x, dir, f0, 0.0, f0, pt };
    double br[3], fb;
    bracket(&l, f0, br, &fb);
    brent(&l, br[0], br[1], br[2], fb);
    if (l.best_f < f0) {
        for (int i = 0; i < c->n; i++) x[i] = x[i] + l.best_alpha * dir[i];
        return l.best_f;
    }
    return f0;
}

/* scratch of _powell_core: n directions, then x_start, d_new, x_ext, pt */
typedef struct { double *dirs, *x_start, *d_new, *x_ext, *pt; } powell_t;

/* _powell_core with tol 1e-8 and 100 n iterations: descends from x in
 * place; returns its value */
static double powell(run_t *c, powell_t *w, double *x) {
    int n = c->n;
    const double tol = 1e-8;
    double fx = take(c, x);
    for (int i = 0; i < n * n; i++) w->dirs[i] = i % (n + 1) == 0 ? 1.0 : 0.0;
    for (int it = 0; it < 100 * n; it++) {
        double f_start = fx;
        memcpy(w->x_start, x, 8 * (size_t)n);
        double biggest_dec = 0.0;
        int biggest_idx = 0;
        for (int i = 0; i < n; i++) {
            double f_before = fx;
            fx = line_min(c, x, w->dirs + (size_t)i * n, fx, w->pt);
            if (f_before - fx > biggest_dec) {
                biggest_dec = f_before - fx;
                biggest_idx = i;
            }
        }
        if (2.0 * (f_start - fx) <= tol * (fabs(f_start) + fabs(fx)) + 1e-300) return fx;
        for (int i = 0; i < n; i++) {
            w->d_new[i] = x[i] - w->x_start[i];
            w->x_ext[i] = x[i] + w->d_new[i];
        }
        if (all_finite(w->x_ext, n)) {
            double f_ext = take(c, w->x_ext);
            if (f_ext < f_start && isfinite(f_ext)) {
                double t = 2.0 * (f_start - 2.0 * fx + f_ext);
                t *= square(f_start - fx - biggest_dec);
                t -= biggest_dec * square(f_start - f_ext);
                if (t < 0.0) {
                    fx = line_min(c, x, w->d_new, fx, w->pt);
                    memmove(w->dirs + (size_t)biggest_idx * n, w->dirs + (size_t)(n - 1) * n,
                            8 * (size_t)n);
                    memcpy(w->dirs + (size_t)(n - 1) * n, w->d_new, 8 * (size_t)n);
                }
            }
        }
    }
    return fx;
}

/* Sets up a run over the registers r */
static void init(run_t *c, const char *image, uint64_t *s, int64_t max_evals,
                 const volatile unsigned char *stop, double *best, double *points, double *r) {
    memcpy(&c->h, image, sizeof c->h);
    c->image = image;
    c->n = c->h.dim;
    c->max_evals = max_evals;
    c->evals = 0;
    c->stop = stop;
    c->best = best;
    c->points = points;
    c->s = s;
    c->reason = BUDGET_EXHAUSTED;
    c->r = r;
}

/* basin_hopping's loop, until a longjmp ends it */
static void bh(run_t *c, const double *x0, double *work) {
    int n = c->n;
    size_t nn = (size_t)n;
    powell_t w = { work, work + nn * nn, work + nn * nn + nn, work + nn * nn + 2 * nn,
                   work + nn * nn + 3 * nn };
    double *x = work + nn * nn + 4 * nn, *xt = work + nn * nn + 5 * nn;
    memcpy(x, x0, 8 * nn);
    double fx = powell(c, &w, x);
    for (;;) {
        for (int i = 0; i < n; i++) xt[i] = x[i] + (-0.5 + next_double(c->s) * (0.5 - -0.5));
        double ft = powell(c, &w, xt);
        int accept = ft <= fx;
        if (!accept) {  /* Metropolis at temperature 1 */
            double delta = ft - fx;
            double p = delta == delta ? exp(-delta / 1.0) : 0.0;
            accept = next_double(c->s) < p;
        }
        if (accept) {
            double *t = x;
            x = xt;
            xt = t;
            fx = ft;
        }
    }
}

/* crs2_minimize's population and steady state, until a longjmp ends it */
static void crs2(run_t *c, const double *x0, double lo, double hi, double *work, int *pool) {
    int n = c->n, size = 10 * (n + 1);
    size_t nn = (size_t)n, ns = (size_t)size;
    double *pop = work, *fvals = pop + ns * nn, *total = fvals + ns;
    double *trial = total + nn, *mutated = trial + nn;
    int *chosen = pool + size;
    for (int j = 0; j < n; j++) pop[j] = x0[j] <= lo ? lo : x0[j] >= hi ? hi : x0[j];
    fvals[0] = take(c, pop);
    for (size_t k = nn; k < ns * nn; k++) pop[k] = lo + next_double(c->s) * (hi - lo);
    for (int i = 1; i < size; i++) fvals[i] = take(c, pop + (size_t)i * nn);
    for (;;) {
        int worst = 0, best = 0;  /* the first of each */
        for (int i = 1; i < size; i++) {
            if (fvals[i] > fvals[worst]) worst = i;
            if (fvals[i] < fvals[best]) best = i;
        }
        /* n + 1 distinct points led by the best, each further one at
         * index int(u * len(pool)) into the rest, kept in order */
        int len = 0;
        for (int i = 0; i < size; i++)
            if (i != best) pool[len++] = i;
        chosen[0] = best;
        for (int j = 1; j <= n; j++) {
            int k = (int)(next_double(c->s) * (double)len);
            chosen[j] = pool[k];
            memmove(pool + k, pool + k + 1, sizeof *pool * (size_t)(len - k - 1));
            len--;
        }
        /* the centroid of all but the last, summed in row order from +0.0
         * and then divided */
        for (int j = 0; j < n; j++) total[j] = 0.0;
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) total[j] = total[j] + pop[(size_t)chosen[i] * nn + j];
        const double *last = pop + (size_t)chosen[n] * nn;
        int inside = 1;
        for (int j = 0; j < n; j++) {
            trial[j] = 2.0 * (total[j] / (double)n) - last[j];
            if (!(lo <= trial[j] && trial[j] <= hi)) inside = 0;
        }
        if (inside) {
            double ft = take(c, trial);
            if (ft < fvals[worst]) {
                memcpy(pop + (size_t)worst * nn, trial, 8 * nn);
                fvals[worst] = ft;
                continue;
            }
        }
        /* local mutation: the failed trial reflected about the best point
         * with per-coordinate random weights */
        const double *b = pop + (size_t)best * nn;
        for (int j = 0; j < n; j++) {
            double u = next_double(c->s);
            double v = (1.0 + u) * b[j] - u * trial[j];
            mutated[j] = v <= lo ? lo : v >= hi ? hi : v;
        }
        double ft = take(c, mutated);
        if (ft < fvals[worst]) {
            memcpy(pop + (size_t)worst * nn, mutated, 8 * nn);
            fvals[worst] = ft;
        }
    }
}

/* np.argsort(kind="stable") order of the values: NaN last, ties kept in
 * index order */
typedef struct { double v; int i; } ranked_t;

static int by_value(const void *pa, const void *pb) {
    const ranked_t *a = pa, *b = pb;
    int a_nan = a->v != a->v, b_nan = b->v != b->v;
    if (a_nan != b_nan) return a_nan - b_nan;
    if (!a_nan && a->v != b->v) return a->v < b->v ? -1 : 1;
    return a->i - b->i;
}

/* isres_minimize's population and generations, until a longjmp ends it */
static void isres(run_t *c, const double *x0, double lo, double hi, double *work,
                  ranked_t *rank) {
    int n = c->n, lam = 20 * (n + 1), mu = (2 * lam + 7) / 14;  /* round(lam / 7) */
    int even_n = n + n % 2, width = 2 + 2 * even_n;
    size_t nn = (size_t)n, nl = (size_t)lam, nm = (size_t)mu;
    double *pop = work, *sig = pop + nl * nn, *fvals = sig + nl * nn;
    double *par = fvals + nl, *psig = par + nm * nn, *z = psig + nm * nn;
    double tau = 1.0 / sqrt(2.0 * sqrt((double)n)), taup = 1.0 / sqrt(2.0 * (double)n);
    /* the population, as crs2's */
    for (int j = 0; j < n; j++) pop[j] = x0[j] <= lo ? lo : x0[j] >= hi ? hi : x0[j];
    fvals[0] = take(c, pop);
    for (size_t k = nn; k < nl * nn; k++) pop[k] = lo + next_double(c->s) * (hi - lo);
    for (int i = 1; i < lam; i++) fvals[i] = take(c, pop + (size_t)i * nn);
    double sig0 = (hi - lo) / sqrt((double)n);
    for (size_t k = 0; k < nl * nn; k++) sig[k] = sig0;
    for (;;) {
        for (int i = 0; i < lam; i++) {
            rank[i].v = fvals[i];
            rank[i].i = i;
        }
        qsort(rank, nl, sizeof *rank, by_value);
        for (size_t k = 0; k < nm; k++) {
            memcpy(par + k * nn, pop + (size_t)rank[k].i * nn, 8 * nn);
            memcpy(psig + k * nn, sig + (size_t)rank[k].i * nn, 8 * nn);
        }
        /* directed differential variation among the elite */
        for (size_t k = 0; k + 1 < nm; k++)
            for (size_t j = 0; j < nn; j++) {
                pop[k * nn + j] = par[k * nn + j] + 0.85 * (par[j] - par[(k + 1) * nn + j]);
                sig[k * nn + j] = psig[k * nn + j];
            }
        /* log-normal step-size mutation: every deviate of the generation
         * is drawn before its first evaluation */
        gauss(c->s, z, (nl - (nm - 1)) * (size_t)width);
        for (size_t k = nm - 1; k < nl; k++) {
            const double *zk = z + (k - (nm - 1)) * (size_t)width;
            const double *pk = par + (k % nm) * nn, *sk = psig + (k % nm) * nn;
            for (int j = 0; j < n; j++) {
                double s = sk[j] * exp(taup * zk[0] + tau * zk[2 + j]);
                if (s > hi - lo) s = hi - lo;  /* np.minimum: NaN passes */
                sig[k * nn + j] = s;
                pop[k * nn + j] = pk[j] + s * zk[2 + even_n + j];
            }
        }
        for (size_t k = 0; k < nl * nn; k++)
            pop[k] = pop[k] <= lo ? lo : pop[k] >= hi ? hi : pop[k];
        for (int i = 0; i < lam; i++) fvals[i] = take(c, pop + (size_t)i * nn);
    }
}

/* ------------------------------------------------------------------------
 * The race: whole runs of basin hopping, CRS2 and ISRES as its jobs, each
 * on a pthread of its own or in the calling thread
 * ------------------------------------------------------------------------ */

enum { BH, CRS2, ISRES };  /* a job's algorithm (optimizers._ALGORITHM_CODES) */

/* Runs alg until a longjmp ends it. The setjmp is here, so the run state
 * is not a local of the function that calls setjmp, whose changed
 * non-volatile locals are indeterminate after the longjmp (C11 7.13.2.1). */
static void dispatch(run_t *c, int alg, const double *x0, double lo, double hi,
                     double *work, void *index) {
    if (setjmp(c->end) != 0) return;
    if (alg == BH)
        bh(c, x0, work);
    else if (alg == CRS2)
        crs2(c, x0, lo, hi, work, index);
    else
        isres(c, x0, lo, hi, work, index);
}

/* A whole run from x0, advancing the generator state s[4]:
 * - BH, basin_hopping: Powell descents from uniform steps of at most 0.5
 *   per coordinate, accepted by the Metropolis test;
 * - CRS2, crs2_minimize in the box [lo, hi]: a population of 10 (n + 1),
 *   the clipped start point then uniform points, then reflections of a
 *   random simplex led by the best point, with local mutation where a
 *   reflection fails;
 * - ISRES, isres_minimize in the box [lo, hi]: lambda = 20 (n + 1)
 *   offspring, the clipped start point then uniform points, then
 *   generations bred from the mu = round(lambda / 7) best, by a
 *   differential step and by log-normal mutation of their step sizes.
 * Writes the evaluations made to *evals and the best point and its value
 * to best[0..n]; every evaluated point goes to points (max_evals rows) if
 * it is not NULL. Returns ZERO_FOUND, BUDGET_EXHAUSTED or CANCELLED, or
 * -1 if its scratch cannot be allocated. While it runs, its generator
 * state and run state sit on this thread's stack, and its registers and
 * running best in a scratch block of whole cache lines, so that it shares
 * no cache line that it writes with a job on another thread. */
static int whole_run(int alg, const char *image, const double *x0, uint64_t *s,
                     int64_t max_evals, double lo, double hi,
                     const volatile unsigned char *stop, double *best, int64_t *evals,
                     double *points) {
    header h;
    memcpy(&h, image, sizeof h);
    size_t nn = (size_t)h.dim, work, index;  /* scratch in doubles, then in bytes */
    if (alg == BH) {
        /* Powell's directions and vectors, then the point and the trial */
        work = nn * nn + 6 * nn;
        index = 0;
    } else if (alg == CRS2) {
        /* the population and its values, total, trial and mutated; then
         * the pool and the chosen indices */
        size_t ns = 10 * (nn + 1);
        work = ns * nn + ns + 3 * nn;
        index = sizeof(int) * (ns + nn + 1);
    } else {
        /* population and step sizes, values, parents and their step
         * sizes, then the generation's deviates; then the ranking */
        size_t nl = 20 * (nn + 1), nm = (2 * nl + 7) / 14, width = 2 + 2 * (nn + nn % 2);
        work = 2 * nl * nn + nl + 2 * nm * nn + (nl - (nm - 1)) * width;
        index = sizeof(ranked_t) * nl;
    }
    /* the registers and the running best before the scratch */
    size_t size = 8 * ((size_t)h.nregs + nn + 1 + work) + index;
    void *block;
    if (posix_memalign(&block, 64, (size + 63) & ~(size_t)63) != 0) return -1;
    double *r = block, *run_best = r + h.nregs, *w = run_best + nn + 1;
    uint64_t state[4];
    memcpy(state, s, sizeof state);
    run_t c;
    init(&c, image, state, max_evals, stop, run_best, points, r);
    dispatch(&c, alg, x0, lo, hi, w, w + work);
    memcpy(s, state, sizeof state);
    memcpy(best, run_best, 8 * (nn + 1));
    *evals = c.evals;
    free(block);
    return c.reason;
}

typedef struct race race_t;

/* A job's slot: one cache line of its own */
typedef struct {
    race_t *race;
    int i, threaded;
    pthread_t thread;
} __attribute__((aligned(64))) job_t;

/* See fpsat_race_new. `running` counts the jobs' threads that have not
 * ended; it and `winner` are guarded by `lock`. */
struct race {
    const char *image;
    int n, njobs, started, running, winner, ncpus;
    const unsigned char *algs;
    const double *x0s;
    uint64_t *states;
    int64_t max_evals;
    double lo, hi;
    volatile unsigned char *stop;
    double *best, *times, *points;
    int64_t *results;
    cpu_set_t cpus;  /* where the caller may run */
    pthread_mutex_t lock;
    pthread_cond_t ended;
    job_t jobs[];
};

/* CLOCK_MONOTONIC, the clock of Python's time.perf_counter, in seconds */
static double now(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* Records that job i ended with code after evals evaluations, between
 * times t0 and now. A zero is claimed under the lock, and the first
 * claimed wins; a zero or a failure ends the other jobs through the stop
 * byte. */
static void job_ended(race_t *race, int i, int code, int64_t evals, double t0) {
    if (code == ZERO_FOUND) {
        pthread_mutex_lock(&race->lock);
        if (race->winner < 0) race->winner = i;
        pthread_mutex_unlock(&race->lock);
    }
    if ((code == ZERO_FOUND || code < 0) && race->njobs > 1 && race->stop != NULL)
        *race->stop = 1;
    race->results[2 * i] = code;
    race->results[2 * i + 1] = evals;
    race->times[2 * i] = t0;
    race->times[2 * i + 1] = now();
}

static void run_job(race_t *race, int i) {
    size_t n = (size_t)race->n, k = (size_t)i;
    double t0 = now();
    int64_t evals = 0;
    int code = whole_run(race->algs[i], race->image, race->x0s + k * n, race->states + 4 * k,
                         race->max_evals, race->lo, race->hi, race->stop,
                         race->best + k * (n + 1), &evals,
                         race->points == NULL ? NULL
                                              : race->points + k * (size_t)race->max_evals * n);
    job_ended(race, i, code, evals, t0);
}

static void thread_ended(race_t *race) {
    pthread_mutex_lock(&race->lock);
    if (--race->running == 0) pthread_cond_broadcast(&race->ended);
    pthread_mutex_unlock(&race->lock);
}

static void *job_thread(void *arg) {
    job_t *job = arg;
    race_t *race = job->race;
    if (race->ncpus > 1) pthread_setaffinity_np(pthread_self(), sizeof race->cpus, &race->cpus);
    run_job(race, job->i);
    thread_ended(race);
    return NULL;
}

/* Starts job i's thread on the (i mod ncpus)-th of the caller's CPUs, so
 * that jobs started together start on different CPUs; the thread then
 * may run on any of them. A new thread otherwise starts on its creator's
 * CPU, where, on hosts whose CPUs share no cache (some virtual machines),
 * it waits behind the job started before it until the scheduler balances
 * its load, milliseconds later: longer than many a whole race. */
static int spawn(race_t *race, job_t *job) {
    if (race->ncpus > 1) {
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0, k = job->i % race->ncpus; cpu < CPU_SETSIZE; cpu++)
            if (CPU_ISSET(cpu, &race->cpus) && k-- == 0) {
                CPU_SET(cpu, &one);
                break;
            }
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setaffinity_np(&attr, sizeof one, &one);
        int err = pthread_create(&job->thread, &attr, job_thread, job);
        pthread_attr_destroy(&attr);
        if (err == 0) return 0;
    }
    return pthread_create(&job->thread, NULL, job_thread, job);
}

/* A race of njobs whole runs on one program image, none started yet, or
 * NULL if it cannot be allocated. Job i runs algs[i] (BH, CRS2 or ISRES)
 * from x0s[i n ..] with the generator state states[4 i ..], within
 * max_evals evaluations and, for CRS2 and ISRES, the box [lo, hi],
 * polling the stop byte (NULL: never stopped) before every evaluation.
 * When it ends it leaves its generator state in states, its best point
 * and value in best[i (n + 1) ..], its code (as whole_run's) and its
 * evaluations in results[2 i] and results[2 i + 1], and when it began and
 * ended in times[2 i] and times[2 i + 1]. Its evaluated points go to
 * points[i max_evals n ..] if points is not NULL. Every buffer must
 * outlive the race. */
race_t *fpsat_race_new(const char *image, int njobs, const unsigned char *algs,
                       const double *x0s, uint64_t *states, int64_t max_evals, double lo,
                       double hi, volatile unsigned char *stop, double *best,
                       int64_t *results, double *times, double *points) {
    void *block;
    if (posix_memalign(&block, 64, sizeof(race_t) + sizeof(job_t) * (size_t)njobs) != 0)
        return NULL;
    race_t *race = block;
    header h;
    memcpy(&h, image, sizeof h);
    race->image = image;
    race->n = h.dim;
    race->njobs = njobs;
    race->started = race->running = 0;
    race->winner = -1;
    race->algs = algs;
    race->x0s = x0s;
    race->states = states;
    race->max_evals = max_evals;
    race->lo = lo;
    race->hi = hi;
    race->stop = stop;
    race->best = best;
    race->times = times;
    race->points = points;
    race->results = results;
    race->ncpus = sched_getaffinity(0, sizeof race->cpus, &race->cpus) == 0
                      ? CPU_COUNT(&race->cpus) : 1;
    pthread_condattr_t attr;
    pthread_condattr_init(&attr);
    pthread_condattr_setclock(&attr, CLOCK_MONOTONIC);
    pthread_cond_init(&race->ended, &attr);
    pthread_condattr_destroy(&attr);
    pthread_mutex_init(&race->lock, NULL);
    return race;
}

/* Starts the next count jobs, each on a thread of its own if threaded is
 * nonzero and the stop byte is clear, else in this thread, where a job
 * started after the stop byte is set ends at its first poll. The jobs'
 * threads block every signal, so that signals reach the caller's. A job
 * whose thread cannot be started fails as if its scratch could not be
 * allocated. */
void fpsat_race_start(race_t *race, int count, int threaded) {
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (; count > 0 && race->started < race->njobs; count--) {
        int i = race->started++;
        job_t *job = &race->jobs[i];
        job->race = race;
        job->i = i;
        job->threaded = threaded && (race->stop == NULL || !*race->stop);
        if (!job->threaded) {
            run_job(race, i);
            continue;
        }
        pthread_mutex_lock(&race->lock);
        race->running++;
        pthread_mutex_unlock(&race->lock);
        if (spawn(race, job) != 0) {
            job->threaded = 0;
            job_ended(race, i, -1, 0, now());
            thread_ended(race);
        }
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* Waits up to timeout seconds for every job started on a thread to end;
 * 1 if they have, else 0. */
int fpsat_race_wait(race_t *race, double timeout) {
    struct timespec until;
    clock_gettime(CLOCK_MONOTONIC, &until);
    if (timeout > 0.0) {
        double whole = floor(timeout);
        until.tv_sec += (time_t)whole;
        until.tv_nsec += (long)((timeout - whole) * 1e9);
        if (until.tv_nsec >= 1000000000L) {
            until.tv_sec++;
            until.tv_nsec -= 1000000000L;
        }
    }
    pthread_mutex_lock(&race->lock);
    while (race->running > 0
           && pthread_cond_timedwait(&race->ended, &race->lock, &until) != ETIMEDOUT) {
    }
    int done = race->running == 0;
    pthread_mutex_unlock(&race->lock);
    return done;
}

/* Joins the race's threads, which end at their next poll once the stop
 * byte is set, and frees the race; returns the index of the job whose
 * zero won, or -1. */
int fpsat_race_end(race_t *race) {
    for (int i = 0; i < race->started; i++)
        if (race->jobs[i].threaded) pthread_join(race->jobs[i].thread, NULL);
    int winner = race->winner;
    pthread_cond_destroy(&race->ended);
    pthread_mutex_destroy(&race->lock);
    free(race);
    return winner;
}
