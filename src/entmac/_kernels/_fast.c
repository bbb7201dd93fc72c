/* Compiled tally kernel: the word-program evaluator of entmac._kernels.pure, in C.
 *
 * The module exports one function, histogram. Its one loop runs any word
 * program (thresholds t_0 .. t_{k-1}, weights w_0 .. w_{k-1}, offsets
 * o_0 < .. < o_{k-1}, period P) over n slots of a SplitMix64 stream (Steele,
 * Lea & Flood, OOPSLA 2014): slot s is stream words s P .. s P + P - 1, its
 * read i is the word at offset o_i among them, and its index is the sum of
 * w_i * [(word_i >> 11) >= t_i]. It returns how many slots had each index.
 * The stream is counter-based, so the loop steps its state over the words
 * between two reads at once and never mixes a word no offset names.
 * The programs and the tables that fold an index histogram into a tally stay
 * on the Python side, so nothing here knows the physics and both backends
 * share one source of truth. The loop releases the GIL. Every argument is
 * range-checked and every array sized from the program before it starts, so
 * no index can leave the count array.
 *
 * Build with `python src/entmac/_kernels/build.py`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* PyArg_ParseTuple "O&" converters: each returns 0 with an exception set. */
static int count_arg(PyObject *obj, void *out)  /* an int >= 0 */
{
    Py_ssize_t n = PyLong_AsSsize_t(obj);
    if (n == -1 && PyErr_Occurred())
        return 0;
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "count must be >= 0, got %zd", n);
        return 0;
    }
    *(Py_ssize_t *)out = n;
    return 1;
}

static int u64_arg(PyObject *obj, void *out)  /* an int in 0..2**64-1 */
{
    uint64_t v = PyLong_AsUnsignedLongLong(obj);
    if (v == (uint64_t)-1 && PyErr_Occurred())
        return 0;
    *(uint64_t *)out = v;
    return 1;
}

/* A new array of the ints in the sequence obj, each in 0..max, and their
 * number in *len; the caller frees it. Returns NULL with an exception set. */
static uint64_t *u64_array(PyObject *obj, uint64_t max, const char *name, Py_ssize_t *len)
{
    PyObject *seq = PySequence_Fast(obj, "thresholds, weights and offsets must be sequences");
    if (seq == NULL)
        return NULL;
    *len = PySequence_Fast_GET_SIZE(seq);
    uint64_t *out = PyMem_New(uint64_t, *len);
    int ok = out != NULL;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; ok && i < *len; i++) {
        ok = u64_arg(PySequence_Fast_GET_ITEM(seq, i), &out[i]);
        if (ok && out[i] > max) {
            PyErr_Format(PyExc_ValueError, "%s %zd must be <= %llu", name, i,
                         (unsigned long long)max);
            ok = 0;
        }
    }
    Py_DECREF(seq);
    if (!ok)
        PyMem_Free(out);
    return ok ? out : NULL;
}

static PyObject *histogram(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n, period, k, k_weights, k_offsets;
    uint64_t s, *t = NULL, *w = NULL, *o = NULL;
    Py_ssize_t *counts = NULL;
    PyObject *threshold_obj, *weight_obj, *offset_obj, *out = NULL;
    if (!PyArg_ParseTuple(args, "O&O&OOOO&:histogram", count_arg, &n, u64_arg, &s,
                          &threshold_obj, &weight_obj, &offset_obj, count_arg, &period))
        return NULL;
    /* the largest index, sum(weights), stays within this bound, so neither the
       index nor the size of the count array can overflow */
    const uint64_t bound = (uint64_t)PY_SSIZE_T_MAX / sizeof(Py_ssize_t) - 1;
    uint64_t top = 0;
    if ((t = u64_array(threshold_obj, 1ULL << 53, "threshold", &k)) == NULL
        || (w = u64_array(weight_obj, bound, "weight", &k_weights)) == NULL
        || (o = u64_array(offset_obj, UINT64_MAX, "offset", &k_offsets)) == NULL)
        goto done;
    if (k != k_weights || k != k_offsets || k == 0) {
        PyErr_Format(PyExc_ValueError, "a program needs at least one threshold, and one "
                     "weight and one offset per threshold, got %zd, %zd and %zd",
                     k, k_weights, k_offsets);
        goto done;
    }
    for (Py_ssize_t j = 0; j < k; j++)
        if ((j > 0 && o[j] <= o[j - 1]) || o[j] >= (uint64_t)period) {
            PyErr_Format(PyExc_ValueError, "offsets must rise strictly and stay below the "
                         "period %zd", period);
            goto done;
        }
    for (Py_ssize_t j = 0; j < k && top <= bound; j++)
        top += w[j];
    if (top > bound) {
        PyErr_SetString(PyExc_OverflowError, "sum(weights) is too large");
        goto done;
    }
    if ((counts = PyMem_Calloc(top + 1, sizeof *counts)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* o[j] becomes what read j adds to the state before it mixes: its gap from the word
       before it (from word -1 for the first read) times GOLDEN, mod 2**64; after the last
       read the state steps to the end of the slot */
    const uint64_t tail = ((uint64_t)period - 1 - o[k - 1]) * GOLDEN;
    for (Py_ssize_t j = k - 1; j >= 0; j--)
        o[j] = (o[j] - (j > 0 ? o[j - 1] : (uint64_t)-1)) * GOLDEN;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t index = 0;
        for (Py_ssize_t j = 0; j < k; j++) {
            s += o[j];
            index += w[j] * ((mix64(s) >> 11) >= t[j]);
        }
        s += tail;
        counts[index]++;
    }
    Py_END_ALLOW_THREADS
    out = PyList_New((Py_ssize_t)top + 1);
    for (uint64_t i = 0; out != NULL && i <= top; i++) {
        PyObject *count = PyLong_FromSsize_t(counts[i]);
        if (count == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, count);
    }
done:
    PyMem_Free(counts);
    PyMem_Free(o);
    PyMem_Free(w);
    PyMem_Free(t);
    return out;
}

static PyMethodDef methods[] = {
    {"histogram", histogram, METH_VARARGS,
     "histogram(n, seed, thresholds, weights, offsets, period): [number of the n slots\n"
     "with index i for each i <= sum(weights)], where a slot is period words of the\n"
     "stream and reads, per threshold t, the word w at its offset, and its index is the\n"
     "sum of the weights of the words w with (w >> 11) >= t."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_fast",
    .m_doc = "The compiled word-program evaluator: one function, histogram, that replays\n"
             "the pure backend's word programs.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    return PyModule_Create(&module);
}
