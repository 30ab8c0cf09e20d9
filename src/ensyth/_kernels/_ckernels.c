/* Compiled matmul/relu kernels, bit-identical to _pykernels.

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

/* Fill view with a 2-D, C-contiguous float64 buffer of obj, or raise. */
static int
get_matrix(PyObject *obj, Py_buffer *view, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *fmt = view->format ? view->format : "B";
    if (fmt[0] == '@' || fmt[0] == '=' || fmt[0] == '<')
        fmt++;
    if (strcmp(fmt, "d") != 0 || view->itemsize != sizeof(double)) {
        PyErr_Format(PyExc_TypeError, "%s must be a float64 buffer, got format '%s'",
                     name, view->format ? view->format : "B");
    } else if (view->ndim != 2) {
        PyErr_Format(PyExc_ValueError, "%s must be 2-D, got ndim=%d", name, view->ndim);
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
    if (get_matrix(a_obj, &a, "a") < 0)
        return NULL;
    if (get_matrix(b_obj, &b, "b") < 0)
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
    if (get_matrix(a_obj, &a, "a") < 0)
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

static PyMethodDef methods[] = {
    {"matmul", matmul, METH_VARARGS,
     "matmul(a, b) -> ndarray\n\nFixed-summation-order product of two 2-D "
     "C-contiguous float64 arrays."},
    {"relu", relu, METH_O,
     "relu(a) -> ndarray\n\nElementwise max(x, 0) of a 2-D C-contiguous float64 array."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "Compiled matmul/relu kernels, bit-identical to _pykernels.", -1, methods,
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
