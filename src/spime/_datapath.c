/* The simulator's AES-128 datapath, compiled: one round and the key schedule
   on registers of 16-byte lanes, with the same bytes as the pure-Python
   block_round and expand_keys of spime.primitives, which build it on first
   import and call it when it loaded.

   A register is N block-form states side by side, lane u at bytes
   16u .. 16u+15; byte 4c + r of a lane is state entry (row r, column c).
   Both kinds of round use T-tables (Daemen & Rijmen, The Design of Rijndael,
   2002, section 4.2): te[j][x] is the column that S(x) in row j contributes
   after MixColumns, so a column of the next state is four lookups and the
   round key. The final round, without MixColumns, masks the same tables:
   te[(r + 3) & 3][x] holds S(x) itself in row r's byte. A column word holds
   row r in bits 8r .. 8r+7 whatever the host's byte order. The S-box and the
   round constants come in as byte buffers on every call, and the tables are
   rebuilt whenever the S-box bytes differ from those they were built from. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define LANE 16
#define SBOX_BYTES 256
#define MAX_ROUNDS 64
#define VIEWS 3

static uint32_t te[4][SBOX_BYTES];
static unsigned char te_sbox[SBOX_BYTES];
static int te_built;

static uint32_t
rotl8(uint32_t w)
{
    return (w << 8) | (w >> 24);
}

/* The tables of sbox, built again only when its bytes changed. */
static void
use_sbox(const unsigned char *sbox)
{
    if (te_built && !memcmp(te_sbox, sbox, SBOX_BYTES))
        return;
    for (int x = 0; x < SBOX_BYTES; x++) {
        uint32_t s = sbox[x];
        uint32_t s2 = ((s << 1) ^ ((s & 0x80) ? 0x1B : 0)) & 0xFF;
        /* Rows 0-3 of MixColumns' first column, (2, 1, 1, 3), times S(x). */
        uint32_t t = s2 | (s << 8) | (s << 16) | ((s2 ^ s) << 24);
        for (int j = 0; j < 4; j++, t = rotl8(t))
            te[j][x] = t;
    }
    memcpy(te_sbox, sbox, SBOX_BYTES);
    te_built = 1;
}

static uint32_t
load_column(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

static void
store_column(unsigned char *p, uint32_t w)
{
    p[0] = (unsigned char)w;
    p[1] = (unsigned char)(w >> 8);
    p[2] = (unsigned char)(w >> 16);
    p[3] = (unsigned char)(w >> 24);
}

/* Row r of column c after SubBytes and ShiftRows, which takes it from column
   c + r: its MixColumns contribution, or in a final round S(x) alone. */
static inline uint32_t
lookup(const unsigned char *lane, int c, int r, int final)
{
    uint32_t t = te[(r + 3 * final) & 3][lane[4 * ((c + r) & 3) + r]];
    return final ? t & (0xFFu << 8 * r) : t;
}

/* One round, full or final, on each lane of the n bytes at in. */
static inline void
round_lanes(const unsigned char *in, const unsigned char *key, unsigned char *out, Py_ssize_t n,
            int final)
{
    for (Py_ssize_t i = 0; i < n; i += LANE)
        for (int c = 0; c < 4; c++) {
            uint32_t w = lookup(in + i, c, 0, final) ^ lookup(in + i, c, 1, final)
                         ^ lookup(in + i, c, 2, final) ^ lookup(in + i, c, 3, final);
            store_column(out + i + 4 * c, w ^ load_column(key + i + 4 * c));
        }
}

/* Read-only byte views of the leading VIEWS arguments, all or none: -1 with a
   TypeError naming the first that is not bytes-like. */
static int
get_views(PyObject *const *args, Py_buffer *views, const char *const *names)
{
    for (int i = 0; i < VIEWS; i++) {
        if (PyObject_GetBuffer(args[i], &views[i], PyBUF_SIMPLE) < 0) {
            PyErr_Format(PyExc_TypeError, "%s must be bytes-like, not %.100s", names[i],
                         Py_TYPE(args[i])->tp_name);
            while (i--)
                PyBuffer_Release(&views[i]);
            return -1;
        }
    }
    return 0;
}

static void
release_views(Py_buffer *views)
{
    for (int i = 0; i < VIEWS; i++)
        PyBuffer_Release(&views[i]);
}

PyDoc_STRVAR(block_round_doc,
"block_round(register, round_key, sbox, final) -> bytes\n\n"
"One AES round on every 16-byte lane of register, with sbox as the S-box;\n"
"a true final skips MixColumns. round_key is as long as register.");

static PyObject *
block_round(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[VIEWS] = {"register", "round_key", "sbox"};
    Py_buffer v[VIEWS];
    PyObject *result = NULL;
    int final;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "block_round takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if ((final = PyObject_IsTrue(args[3])) < 0 || get_views(args, v, names) < 0)
        return NULL;
    if (v[2].len != SBOX_BYTES)
        PyErr_SetString(PyExc_ValueError, "sbox must be 256 bytes");
    else if (v[0].len % LANE || v[1].len != v[0].len)
        PyErr_SetString(PyExc_ValueError,
                        "register must be whole 16-byte lanes and round_key as long");
    else if ((result = PyBytes_FromStringAndSize(NULL, v[0].len)) != NULL) {
        unsigned char *out = (unsigned char *)PyBytes_AS_STRING(result);
        use_sbox(v[2].buf);
        if (final)
            round_lanes(v[0].buf, v[1].buf, out, v[0].len, 1);
        else
            round_lanes(v[0].buf, v[1].buf, out, v[0].len, 0);
    }
    release_views(v);
    return result;
}

/* Round keys 1 .. rounds of every lane of regs[0] into regs[1] .. regs[rounds],
   a round at a time, so the lanes of one round are independent work. */
static void
expand_lanes(const unsigned char *sbox, const unsigned char *rcon, Py_ssize_t rounds,
             unsigned char *const *regs, Py_ssize_t n)
{
    for (Py_ssize_t r = 0; r < rounds; r++) {
        for (Py_ssize_t i = 0; i < n; i += LANE) {
            const unsigned char *last = regs[r] + i;
            unsigned char *next = regs[r + 1] + i;
            /* RotWord(SubWord(w3)) and the round constant into w0, then each
               word takes the XOR of all the words before it. */
            uint32_t w0 = load_column(last) ^ (uint32_t)(sbox[last[13]] ^ rcon[r])
                          ^ (uint32_t)sbox[last[14]] << 8 ^ (uint32_t)sbox[last[15]] << 16
                          ^ (uint32_t)sbox[last[12]] << 24;
            uint32_t w1 = load_column(last + 4) ^ w0;
            uint32_t w2 = load_column(last + 8) ^ w1;
            store_column(next, w0);
            store_column(next + 4, w1);
            store_column(next + 8, w2);
            store_column(next + 12, load_column(last + 12) ^ w2);
        }
    }
}

PyDoc_STRVAR(expand_keys_doc,
"expand_keys(keys, rcon, sbox) -> list of bytes\n\n"
"Expand one 16-byte cipher key per lane of keys into len(rcon) + 1\n"
"round-key registers, with the bytes of rcon as the round constants and\n"
"sbox as the S-box; lane u of register i is round key i of key u.");

static PyObject *
expand_keys(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[VIEWS] = {"keys", "rcon", "sbox"};
    Py_buffer v[VIEWS];
    PyObject *schedule = NULL;
    unsigned char *regs[MAX_ROUNDS + 1];

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "expand_keys takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (get_views(args, v, names) < 0)
        return NULL;
    if (v[2].len != SBOX_BYTES)
        PyErr_SetString(PyExc_ValueError, "sbox must be 256 bytes");
    else if (v[0].len % LANE)
        PyErr_SetString(PyExc_ValueError, "keys must be whole 16-byte lanes");
    else if (v[1].len > MAX_ROUNDS)
        PyErr_SetString(PyExc_ValueError, "rcon holds too many round constants");
    else if ((schedule = PyList_New(v[1].len + 1)) != NULL) {
        for (Py_ssize_t r = 0; r <= v[1].len && schedule != NULL; r++) {
            PyObject *reg = PyBytes_FromStringAndSize(r ? NULL : v[0].buf, v[0].len);
            if (reg == NULL) {
                Py_CLEAR(schedule);
            } else {
                PyList_SET_ITEM(schedule, r, reg);
                regs[r] = (unsigned char *)PyBytes_AS_STRING(reg);
            }
        }
        if (schedule != NULL)
            expand_lanes(v[2].buf, v[1].buf, v[1].len, regs, v[0].len);
    }
    release_views(v);
    return schedule;
}

static PyMethodDef datapath_methods[] = {
    {"block_round", (PyCFunction)(void (*)(void))block_round, METH_FASTCALL, block_round_doc},
    {"expand_keys", (PyCFunction)(void (*)(void))expand_keys, METH_FASTCALL, expand_keys_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef datapath_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_datapath",
    .m_doc = "The AES-128 round and key schedule of spime.primitives, compiled.",
    .m_size = -1,
    .m_methods = datapath_methods,
};

PyMODINIT_FUNC
PyInit__datapath(void)
{
    return PyModule_Create(&datapath_module);
}
