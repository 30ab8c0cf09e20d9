/* Compiled kernels, bit-identical to _pykernels: matmul, relu and the two
   fused blocks of one iteration of the pruner's ADMM (at the end).

   Every cell of matmul starts at +0.0 and adds a[i,k]*b[k,j] for k = 0..K-1
   in order, with each multiply and each add rounded on its own (setup.py
   compiles with -ffp-contract=off, so no fused multiply-add).  That is the
   exact sequence of IEEE-754 operations _pykernels.matmul performs.

   Speed comes from register blocking (Goto & van de Geijn, "Anatomy of
   High-Performance Matrix Multiplication", 2008): a tile of MR rows x NR
   columns of the output stays in registers for the whole k loop.  Only the
   columns j are vectorized, which leaves each cell's sequence unchanged.
   The one tile body (DEFINE_TILE) is compiled for AVX2 with 4 doubles per
   vector and for the baseline target with 2; at import the CPU picks AVX2
   if it has it.  Operands arrive through the buffer protocol, so no numpy
   headers are needed; the output array comes from numpy.empty. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define WIDE_MR 4    /* rows of a wide tile, whose columns fill two vectors */
#define NARROW_MR 8  /* rows of a narrow tile, whose columns fill one vector */
#define MAX_W 4      /* doubles in the widest vector, AVX2's */

typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

/* c[0:MR, 0:NV*W] = a[0:MR, 0:kdim] @ b[0:kdim, 0:NV*W], for vectors of W
   doubles; lda, ldb and ldc are row strides in doubles. */
typedef void tile_fn(Py_ssize_t kdim, const double *a, Py_ssize_t lda,
                     const double *b, Py_ssize_t ldb, double *c, Py_ssize_t ldc);

/* The micro-kernel: MR x NV vectors of accumulators stay in registers for
   the whole k loop.  Each lane is one output cell, which starts at +0.0 and
   takes one multiply and one add per k, in k order. */
#define DEFINE_TILE(name, vec, MR, NV, ...)                                   \
    __VA_ARGS__ static void                                                   \
    name(Py_ssize_t kdim, const double *a, Py_ssize_t lda,                    \
         const double *b, Py_ssize_t ldb, double *c, Py_ssize_t ldc)          \
    {                                                                         \
        enum { W = sizeof(vec) / sizeof(double) };                            \
        vec acc[MR][NV], bv[NV];                                              \
        for (int r = 0; r < MR; r++)                                          \
            for (int v = 0; v < NV; v++)                                      \
                acc[r][v] = (vec){0};                                         \
        for (Py_ssize_t k = 0; k < kdim; k++) {                               \
            for (int v = 0; v < NV; v++)                                      \
                memcpy(&bv[v], b + k * ldb + v * W, sizeof(vec));             \
            for (int r = 0; r < MR; r++) {                                    \
                const double x = a[r * lda + k];                              \
                for (int v = 0; v < NV; v++)                                  \
                    acc[r][v] = acc[r][v] + x * bv[v];                        \
            }                                                                 \
        }                                                                     \
        for (int r = 0; r < MR; r++)                                          \
            for (int v = 0; v < NV; v++)                                      \
                memcpy(c + r * ldc + v * W, &acc[r][v], sizeof(vec));         \
    }

DEFINE_TILE(wide_portable, v2d, WIDE_MR, 2)
DEFINE_TILE(narrow_portable, v2d, NARROW_MR, 1)
#ifdef __x86_64__
#define HAVE_AVX2_PATH
DEFINE_TILE(wide_avx2, v4d, WIDE_MR, 2, __attribute__((target("avx2"))))
DEFINE_TILE(narrow_avx2, v4d, NARROW_MR, 1, __attribute__((target("avx2"))))
#endif

/* The tiles for one instruction set; w is the vector width in doubles. */
struct isa { tile_fn *wide, *narrow; int w; };

static struct isa isa = {wide_portable, narrow_portable, 2};
static PyObject *np_empty;

/* Columns j..j+cols-1 of c = a @ b (cols <= nr; b and c point at column j)
   in tiles of mr rows.  A tile that would run past row m starts at m - mr
   instead, redoing rows of the tile before it to the same bits.  If m < mr,
   the one tile reads apack, a copy of a padded with zero rows; a tile with
   fewer than mr rows or nr columns to keep writes through ctile. */
static void
column_block(tile_fn *tile, int mr, int nr, Py_ssize_t cols, const double *a,
             const double *apack, const double *b, Py_ssize_t ldb, double *c,
             Py_ssize_t ldc, Py_ssize_t m, Py_ssize_t kdim)
{
    double ctile[NARROW_MR * MAX_W];  /* either tile holds 8 vectors */
    const Py_ssize_t rows = m < mr ? m : mr;
    if (m < mr)
        a = apack;
    for (Py_ssize_t i = 0; i < m; i += mr) {
        if (i > m - mr && m >= mr)
            i = m - mr;
        if (rows == mr && cols == nr) {
            tile(kdim, a + i * kdim, kdim, b, ldb, c + i * ldc, ldc);
            continue;
        }
        tile(kdim, a + i * kdim, kdim, b, ldb, ctile, nr);
        for (Py_ssize_t r = 0; r < rows; r++)
            memcpy(c + (i + r) * ldc, ctile + r * nr, cols * sizeof(double));
    }
}

/* c = a @ b.  Columns go in blocks of two vectors with wide tiles.  Fewer
   than two vectors' worth left over go in blocks of one vector with narrow
   tiles, which keep 8 vectors of accumulators busy; the last such block
   overlaps the one before it rather than running past column n.  Only an
   n below one vector's width reads bpack, a copy of b padded with zero
   columns.  scratch holds (NARROW_MR + MAX_W) * kdim doubles. */
static void
matmul_blocks(const double *a, const double *b, double *c, Py_ssize_t m,
              Py_ssize_t kdim, Py_ssize_t n, double *scratch)
{
    const int w = isa.w;
    double *apack = scratch, *bpack = scratch + NARROW_MR * kdim;
    if (m < NARROW_MR) {
        memcpy(apack, a, m * kdim * sizeof(double));
        memset(apack + m * kdim, 0, (NARROW_MR - m) * kdim * sizeof(double));
    }
    Py_ssize_t j = 0;
    for (; n - j >= 2 * w; j += 2 * w)
        column_block(isa.wide, WIDE_MR, 2 * w, 2 * w, a, apack, b + j, n, c + j, n,
                     m, kdim);
    if (j < n && n >= w) {
        for (; j < n; j += w) {
            if (j > n - w)
                j = n - w;
            column_block(isa.narrow, NARROW_MR, w, w, a, apack, b + j, n, c + j, n,
                         m, kdim);
        }
    } else if (j < n) {
        for (Py_ssize_t k = 0; k < kdim; k++) {
            memcpy(bpack + k * w, b + k * n, n * sizeof(double));
            memset(bpack + k * w + n, 0, (w - n) * sizeof(double));
        }
        column_block(isa.narrow, NARROW_MR, w, n, a, apack, bpack, w, c, n, m, kdim);
    }
}

/* Fill view with an ndim-dimensional, C-contiguous buffer of obj whose items
   have struct format fmt ('d' float64 or '?' bool), or raise. */
static int
get_array(PyObject *obj, Py_buffer *view, const char *name, int ndim, char fmt)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *got = view->format ? view->format : "B";
    if (got[0] == '@' || got[0] == '=' || got[0] == '<')
        got++;
    if (got[0] != fmt || got[1] != '\0'
        || view->itemsize != (fmt == 'd' ? (Py_ssize_t)sizeof(double) : 1)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s buffer, got format '%s'", name,
                     fmt == 'd' ? "float64" : "bool", view->format ? view->format : "B");
    } else if (view->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-D, got ndim=%d", name, ndim,
                     view->ndim);
    } else if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* A new float64 array of shape (m, n) and a writable view of it. */
static PyObject *
new_matrix(Py_ssize_t m, Py_ssize_t n, Py_buffer *view)
{
    PyObject *out = PyObject_CallFunction(np_empty, "((nn))", m, n);
    if (out == NULL)
        return NULL;
    if (PyObject_GetBuffer(out, view, PyBUF_CONTIG) < 0) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

static PyObject *
matmul(PyObject *self, PyObject *args)
{
    PyObject *a_obj, *b_obj, *out = NULL;
    Py_buffer a, b, c;
    if (!PyArg_ParseTuple(args, "OO:matmul", &a_obj, &b_obj))
        return NULL;
    if (get_array(a_obj, &a, "a", 2, 'd') < 0)
        return NULL;
    if (get_array(b_obj, &b, "b", 2, 'd') < 0)
        goto release_a;
    Py_ssize_t m = a.shape[0], kdim = a.shape[1], n = b.shape[1];
    if (b.shape[0] != kdim) {
        PyErr_Format(PyExc_ValueError, "inner dimensions differ: (%zd, %zd) x (%zd, %zd)",
                     m, kdim, b.shape[0], n);
        goto release_b;
    }
    double *scratch = PyMem_RawMalloc((size_t)(NARROW_MR + MAX_W) * kdim * sizeof(double));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto release_b;
    }
    out = new_matrix(m, n, &c);
    if (out != NULL) {
        Py_BEGIN_ALLOW_THREADS
        matmul_blocks(a.buf, b.buf, c.buf, m, kdim, n, scratch);
        Py_END_ALLOW_THREADS
        PyBuffer_Release(&c);
    }
    PyMem_RawFree(scratch);
release_b:
    PyBuffer_Release(&b);
release_a:
    PyBuffer_Release(&a);
    return out;
}

static PyObject *
relu(PyObject *self, PyObject *a_obj)
{
    Py_buffer a, c;
    if (get_array(a_obj, &a, "a", 2, 'd') < 0)
        return NULL;
    PyObject *out = new_matrix(a.shape[0], a.shape[1], &c);
    if (out != NULL) {
        const double *src = a.buf;
        double *dst = c.buf;
        Py_ssize_t size = a.shape[0] * a.shape[1];
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < size; i++)
            dst[i] = src[i] > 0.0 ? src[i] : 0.0;
        Py_END_ALLOW_THREADS
        PyBuffer_Release(&c);
    }
    PyBuffer_Release(&a);
    return out;
}

/* --- The pruner's ADMM iteration between its matmuls ----------------------

   Each block repeats _pykernels.admm_fit / admm_l1 operation for operation:
   the same IEEE-754 operations on each element, numpy's elementwise rules
   (below), and numpy's order for the column sums of squares behind the
   norms.  For m >= 2, sum(axis=0) of a C-contiguous (rows, m) array adds
   each column's rows in order, and so do the blocks.  A single column is
   contiguous, and numpy sums it pairwise instead; the blocks hand m == 1 to
   _pykernels.  The loops take two columns at a time in baseline vectors; an
   odd m redoes one column in the last pair, whose first lane then keeps its
   sums.  The work is memory-bound, so there is no per-ISA variant.

   The vectors are explicit, so -O3's loop passes have nothing to add here:
   at -O1 the blocks run as fast and take half the compile time. */

#pragma GCC push_options
#pragma GCC optimize("O1")

typedef long long v2i __attribute__((vector_size(16)));

static const v2d zero = {0.0, 0.0};
static const v2i all_lanes = {-1, -1}, second_lane = {0, -1};

static inline v2d
load(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, v2d v) { memcpy(p, &v, sizeof v); }

/* numpy's where, maximum and minimum (NaN propagates; on a tie the second
   operand wins), absolute and sign (+0.0 for either zero), lane by lane. */
static inline v2d
where(v2i mask, v2d a, v2d b)
{
    return (v2d)(((v2i)a & mask) | ((v2i)b & ~mask));
}

static inline v2i byte_mask(const unsigned char *c) { return (v2i){c[0] ? -1 : 0, c[1] ? -1 : 0}; }
static inline v2d np_maximum(v2d a, v2d b) { return where((a > b) | (a != a), a, b); }
static inline v2d np_minimum(v2d a, v2d b) { return where((a < b) | (a != a), a, b); }
static inline v2d np_abs(v2d x) { return (v2d)((v2i)x & (v2i){INT64_MAX, INT64_MAX}); }

static inline v2d
np_sign(v2d x)
{
    const v2d one = {1.0, 1.0};
    return where(x > zero, one, where(x < zero, -one, where(x == zero, zero, x)));
}

/* acc[j] += x * x in the lanes of mask. */
static inline void
add_square(double *acc, v2d x, v2i mask)
{
    const v2d old = load(acc);
    store(acc, where(mask, old + x * x, old));
}

/* The element steps work on columns j, j + 1 of row i: element k = i * m + j
   of the (rows, m) arrays; only the lanes in mask add to the sums. */
#define STEP static inline __attribute__((always_inline)) void

/* Fit block, pass 1: sum 0 adds the squares of dev = act ? vf - yt : 0. */
STEP
fit_dev(Py_ssize_t k, Py_ssize_t j, v2i mask, double relax, void *const *in,
        double *const *sum)
{
    const double *const *x = (const double *const *)in;
    const v2d vf = (relax * load(x[0] + k) + (1.0 - relax) * load(x[1] + k))
                   + load(x[2] + k);
    add_square(sum[0] + j, where(byte_mask((const unsigned char *)in[4] + k),
                                 vf - load(x[3] + k), zero), mask);
}

/* Fit block, pass 2: zf_new and wf_new; sums 1-3 add the squares of
   au - zf_new, au and zf_new.  sum[4] holds each column's fit scale. */
STEP
fit_update(Py_ssize_t k, Py_ssize_t j, v2i mask, double relax, void *const *in,
           double *const *out, double *const *sum)
{
    const double *const *x = (const double *const *)in;
    const v2d au = load(x[0] + k), wf = load(x[2] + k), yt = load(x[3] + k);
    const v2d au_r = relax * au + (1.0 - relax) * load(x[1] + k);
    const v2d vf = au_r + wf;
    const v2d z = where(byte_mask((const unsigned char *)in[4] + k),
                        yt + (vf - yt) * load(sum[4] + j),
                        np_minimum(vf, load(x[6] + j)));
    store(out[0] + k, z);
    store(out[1] + k, wf + (au_r - z));
    add_square(sum[1] + j, au - z, mask);
    add_square(sum[2] + j, au, mask);
    add_square(sum[3] + j, z, mask);
}

/* L1 block, one pass: zl_new, wl_new, wx_new; sums 0-4 add the squares of
   u - zl_new, the dual residual, u, zl_new and wx_new + wl_new.  pen is set
   when row i is penalized. */
STEP
l1_update(Py_ssize_t k, Py_ssize_t j, v2i mask, double relax, v2i pen,
          void *const *in, double *const *out, double *const *sum)
{
    const double *const *x = (const double *const *)in;
    const v2d u = load(x[0] + k), zl = load(x[1] + k), wl = load(x[2] + k);
    const v2d d_cache = load(x[4] + k), d_new = load(x[5] + k), rho = load(x[8] + j);
    const v2d u_r = relax * u + (1.0 - relax) * zl;
    const v2d vl = u_r + wl;
    const v2d soft = np_sign(vl) * np_maximum(np_abs(vl) - 1.0 / rho, zero);
    const v2d z = where(pen, soft, vl);
    const v2d wx = load(x[6] + k)
                   + ((relax * load(x[3] + k) + (1.0 - relax) * d_cache) - d_new);
    const v2d wl_new = wl + (u_r - z);
    store(out[0] + k, z);
    store(out[1] + k, wl_new);
    store(out[2] + k, wx);
    add_square(sum[0] + j, u - z, mask);
    add_square(sum[1] + j, rho * ((d_new - d_cache) + (z - zl)), mask);
    add_square(sum[2] + j, u, mask);
    add_square(sum[3] + j, z, mask);
    add_square(sum[4] + j, wx + wl_new, mask);
}

/* STEP_CALL for each column pair of row i, m >= 2; the last pair of an odd
   m overlaps the one before it, and mask leaves out the column done twice. */
#define FOR_PAIRS(i, STEP_CALL)                                               \
    for (Py_ssize_t j_ = 0; j_ < m; j_ += 2) {                                \
        const Py_ssize_t j = j_ + 2 <= m ? j_ : m - 2;                        \
        const v2i mask = j == j_ ? all_lanes : second_lane;                   \
        STEP_CALL;                                                            \
    }

/* A block: operands in, (rows, m) outputs out, the column sums of squares
   of its norms (and scratch) in sum; m >= 2. */
typedef void block_fn(Py_ssize_t rows, Py_ssize_t m, void *const *in, double relax,
                      double *const *out, double *const *sum);

/* in = au, zf, wf, yt, act, eps_fit, eps_slack; out = zf_new, wf_new.
   Pass 1 scales each column's fit projection from its dev norm; pass 2
   recomputes dev and writes. */
static void
fit_block(Py_ssize_t p, Py_ssize_t m, void *const *in, double relax,
          double *const *out, double *const *sum)
{
    const double *eps_fit = in[5];
    for (Py_ssize_t i = 0; i < p; i++)
        FOR_PAIRS(i, fit_dev(i * m + j, j, mask, relax, in, sum))
    for (Py_ssize_t j = 0; j < m; j++) {
        const double norm = sqrt(sum[0][j]);
        sum[4][j] = norm > eps_fit[j] ? eps_fit[j] / (norm > 1e-300 ? norm : 1e-300)
                                      : 1.0;
    }
    for (Py_ssize_t i = 0; i < p; i++)
        FOR_PAIRS(i, fit_update(i * m + j, j, mask, relax, in, out, sum))
}

/* in = u, zl, wl, xau, d_cache, d_new, wx, penalize, rho_col; out = zl_new,
   wl_new, wx_new. */
static void
l1_block(Py_ssize_t d, Py_ssize_t m, void *const *in, double relax,
         double *const *out, double *const *sum)
{
    const unsigned char *penalize = in[7];
    for (Py_ssize_t i = 0; i < d; i++) {
        const v2i pen = penalize[i] ? all_lanes : (v2i){0, 0};
        FOR_PAIRS(i, l1_update(i * m + j, j, mask, relax, pen, in, out, sum))
    }
}

/* An operand: a 2-D array of shape (rows, m), or a vector of length rows
   (axis 0) or m (axis 1). */
struct operand { const char *name; char fmt; int ndim, axis; };

#define MAX_IN 9     /* operands of a block */
#define MAX_OUT 3    /* (rows, m) outputs of a block */
#define MAX_SUMS 5   /* column sums of a block, or the fit scale */

struct block {
    const char *name;
    int n_in, n_out;
    struct operand in[MAX_IN];
    int first_norm, n_norms;    /* the sums returned as norms */
    block_fn *fn;
};

static const struct block fit = {
    "admm_fit", 7, 2,
    {{"au", 'd', 2, 0}, {"zf", 'd', 2, 0}, {"wf", 'd', 2, 0}, {"yt", 'd', 2, 0},
     {"act", '?', 2, 0}, {"eps_fit", 'd', 1, 1}, {"eps_slack", 'd', 1, 1}},
    1, 3, fit_block,
};

static const struct block l1 = {
    "admm_l1", 9, 3,
    {{"u", 'd', 2, 0}, {"zl", 'd', 2, 0}, {"wl", 'd', 2, 0}, {"xau", 'd', 2, 0},
     {"d_cache", 'd', 2, 0}, {"d_new", 'd', 2, 0}, {"wx", 'd', 2, 0},
     {"penalize", '?', 1, 0}, {"rho_col", 'd', 1, 1}},
    0, 5, l1_block,
};

/* The same call on _pykernels, for a single column. */
static PyObject *
numpy_twin(const struct block *b, PyObject *args)
{
    PyObject *mod = PyImport_ImportModule("ensyth._kernels._pykernels");
    if (mod == NULL)
        return NULL;
    PyObject *fn = PyObject_GetAttrString(mod, b->name);
    Py_DECREF(mod);
    if (fn == NULL)
        return NULL;
    PyObject *result = PyObject_Call(fn, args, NULL);
    Py_DECREF(fn);
    return result;
}

/* Parse (operands..., relax), check the shapes against the first operand,
   allocate the outputs and run the block with the GIL released.  Returns
   (outputs..., norms), norms holding one row of m column norms per norm. */
static PyObject *
run_block(const struct block *b, PyObject *args)
{
    Py_buffer in[MAX_IN], outv[MAX_OUT + 1];
    PyObject *outs[MAX_OUT + 1] = {NULL}, *result = NULL;
    void *in_ptr[MAX_IN];
    double *out_ptr[MAX_OUT + 1], *sum[MAX_SUMS], *scratch = NULL;
    int n_in = 0, n_out = 0;
    if (PyTuple_GET_SIZE(args) != b->n_in + 1) {
        PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)", b->name,
                     b->n_in + 1, PyTuple_GET_SIZE(args));
        return NULL;
    }
    const double relax = PyFloat_AsDouble(PyTuple_GET_ITEM(args, b->n_in));
    if (relax == -1.0 && PyErr_Occurred())
        return NULL;
    for (; n_in < b->n_in; n_in++) {
        const struct operand *op = &b->in[n_in];
        if (get_array(PyTuple_GET_ITEM(args, n_in), &in[n_in], op->name, op->ndim,
                      op->fmt) < 0)
            goto done;
        in_ptr[n_in] = in[n_in].buf;
    }
    const Py_ssize_t rows = in[0].shape[0], m = in[0].shape[1];
    for (int i = 1; i < b->n_in; i++) {
        const struct operand *op = &b->in[i];
        const Py_ssize_t *shape = in[i].shape;
        if (op->ndim == 2 ? shape[0] != rows || shape[1] != m
                          : shape[0] != (op->axis ? m : rows)) {
            PyErr_Format(PyExc_ValueError, "%s(): %s does not match %s's shape (%zd, %zd)",
                         b->name, op->name, b->in[0].name, rows, m);
            goto done;
        }
    }
    if (m == 1) {
        result = numpy_twin(b, args);
        goto done;
    }
    for (; n_out <= b->n_out; n_out++) {
        outs[n_out] = new_matrix(n_out < b->n_out ? rows : b->n_norms, m, &outv[n_out]);
        if (outs[n_out] == NULL)
            goto done;
        out_ptr[n_out] = outv[n_out].buf;
    }
    scratch = PyMem_RawCalloc((size_t)MAX_SUMS * m + 1, sizeof(double));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int r = 0; r < MAX_SUMS; r++)
        sum[r] = scratch + r * m;
    Py_BEGIN_ALLOW_THREADS
    b->fn(rows, m, in_ptr, relax, out_ptr, sum);
    for (int r = 0; r < b->n_norms; r++)
        for (Py_ssize_t j = 0; j < m; j++)
            out_ptr[b->n_out][r * m + j] = sqrt(sum[b->first_norm + r][j]);
    Py_END_ALLOW_THREADS
    result = PyTuple_New(b->n_out + 1);
done:
    PyMem_RawFree(scratch);
    for (int i = 0; i < n_in; i++)
        PyBuffer_Release(&in[i]);
    for (int i = 0; i < n_out; i++) {
        PyBuffer_Release(&outv[i]);
        if (result != NULL)
            PyTuple_SET_ITEM(result, i, outs[i]);
        else
            Py_DECREF(outs[i]);
    }
    return result;
}

static PyObject *
admm_fit(PyObject *self, PyObject *args)
{
    return run_block(&fit, args);
}

static PyObject *
admm_l1(PyObject *self, PyObject *args)
{
    return run_block(&l1, args);
}

#pragma GCC pop_options

static PyMethodDef methods[] = {
    {"matmul", matmul, METH_VARARGS,
     "matmul(a, b) -> ndarray\n\nFixed-summation-order product of two 2-D "
     "C-contiguous float64 arrays."},
    {"relu", relu, METH_O,
     "relu(a) -> ndarray\n\nElementwise max(x, 0) of a 2-D C-contiguous float64 array."},
    {"admm_fit", admm_fit, METH_VARARGS,
     "admm_fit(au, zf, wf, yt, act, eps_fit, eps_slack, relax) -> (zf_new, wf_new, norms)"
     "\n\nFit block of one pruner ADMM iteration; see ensyth._kernels.admm_fit."},
    {"admm_l1", admm_l1, METH_VARARGS,
     "admm_l1(u, zl, wl, xau, d_cache, d_new, wx, penalize, rho_col, relax) -> "
     "(zl_new, wl_new, wx_new, norms)\n\nL1 block of one pruner ADMM iteration; "
     "see ensyth._kernels.admm_l1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "Compiled kernels, bit-identical to _pykernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return NULL;
    np_empty = PyObject_GetAttrString(numpy, "empty");
    Py_DECREF(numpy);
    if (np_empty == NULL)
        return NULL;
#ifdef HAVE_AVX2_PATH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        isa = (struct isa){wide_avx2, narrow_avx2, 4};
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        Py_CLEAR(np_empty);
    return mod;
}
