/* The simulator's AES-128 datapath, compiled: one round and the key schedule
   on registers of 16-byte lanes, with the same bytes as the pure-Python
   block_round and expand_keys of spime.primitives, which build it on first
   import and call it when it loaded.

   A register is N block-form states side by side, lane u at bytes
   16u .. 16u+15; byte 4c + r of a lane is state entry (row r, column c).
   The round uses T-tables (Daemen & Rijmen, The Design of Rijndael, 2002,
   section 4.2): te[j][x] is the column that S(x) in row j contributes after
   MixColumns, so a column of the next state is four lookups and the round
   key. A column word holds row r in bits 8r .. 8r+7 whatever the host's
   byte order. The S-box and the round constants come in as arguments on
   every call, and the tables are rebuilt whenever the S-box bytes differ
   from those they were built from. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define LANE 16
#define SBOX_BYTES 256

static uint32_t te[4][SBOX_BYTES];
static unsigned char te_sbox[SBOX_BYTES];
static int te_built;

static uint32_t
rotl8(uint32_t w)
{
    return (w << 8) | (w >> 24);
}

static void
build_tables(const unsigned char *sbox)
{
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

/* A read-only byte view of obj, or -1 with an exception set. */
static int
get_bytes(PyObject *obj, Py_buffer *view, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_SIMPLE) < 0) {
        PyErr_Format(PyExc_TypeError, "%s must be bytes-like, not %.100s", name,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    return 0;
}

static int
check_sbox(const Py_buffer *sbox)
{
    if (sbox->len != SBOX_BYTES) {
        PyErr_SetString(PyExc_ValueError, "sbox must be 256 bytes");
        return -1;
    }
    return 0;
}

static void
full_rounds(const unsigned char *in, const unsigned char *key, unsigned char *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i += LANE) {
        const unsigned char *s = in + i, *k = key + i;
        for (int c = 0; c < 4; c++) {
            /* ShiftRows: row r of column c comes from column c + r. */
            uint32_t w = te[0][s[4 * c]] ^ te[1][s[4 * ((c + 1) & 3) + 1]]
                         ^ te[2][s[4 * ((c + 2) & 3) + 2]] ^ te[3][s[4 * ((c + 3) & 3) + 3]];
            store_column(out + i + 4 * c, w ^ load_column(k + 4 * c));
        }
    }
}

static void
final_rounds(const unsigned char *in, const unsigned char *key, unsigned char *out, Py_ssize_t n,
             const unsigned char *sbox)
{
    for (Py_ssize_t i = 0; i < n; i += LANE)
        for (int c = 0; c < 4; c++)
            for (int r = 0; r < 4; r++)
                out[i + 4 * c + r] = sbox[in[i + 4 * ((c + r) & 3) + r]] ^ key[i + 4 * c + r];
}

PyDoc_STRVAR(block_round_doc,
"block_round(register, round_key, final, sbox) -> bytes\n\n"
"One AES round on every 16-byte lane of register, with sbox as the S-box;\n"
"a true final skips MixColumns. round_key is as long as register.");

static PyObject *
block_round(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer reg, key, sbox;
    PyObject *result = NULL;
    int final;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "block_round takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if ((final = PyObject_IsTrue(args[2])) < 0 || get_bytes(args[0], &reg, "register") < 0)
        return NULL;
    if (get_bytes(args[1], &key, "round_key") < 0)
        goto release_reg;
    if (get_bytes(args[3], &sbox, "sbox") < 0)
        goto release_key;
    if (check_sbox(&sbox) < 0)
        goto release_sbox;
    if (reg.len % LANE || key.len != reg.len) {
        PyErr_SetString(PyExc_ValueError,
                        "register must be whole 16-byte lanes and round_key as long");
        goto release_sbox;
    }
    result = PyBytes_FromStringAndSize(NULL, reg.len);
    if (result != NULL) {
        unsigned char *out = (unsigned char *)PyBytes_AS_STRING(result);
        if (final) {
            final_rounds(reg.buf, key.buf, out, reg.len, sbox.buf);
        } else {
            if (!te_built || memcmp(te_sbox, sbox.buf, SBOX_BYTES))
                build_tables(sbox.buf);
            full_rounds(reg.buf, key.buf, out, reg.len);
        }
    }
release_sbox:
    PyBuffer_Release(&sbox);
release_key:
    PyBuffer_Release(&key);
release_reg:
    PyBuffer_Release(&reg);
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
"expand_keys(keys, sbox, rcon) -> list of bytes\n\n"
"Expand one 16-byte cipher key per lane of keys into len(rcon) + 1\n"
"round-key registers, with sbox as the S-box and rcon as the round\n"
"constants; lane u of register i is round key i of key u.");

static PyObject *
expand_keys(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer keys, sbox;
    PyObject *rcon_seq = NULL, *schedule = NULL;
    unsigned char rcon[64];
    unsigned char *regs[65];
    Py_ssize_t rounds;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "expand_keys takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (get_bytes(args[0], &keys, "keys") < 0)
        return NULL;
    if (get_bytes(args[1], &sbox, "sbox") < 0)
        goto release_keys;
    if (check_sbox(&sbox) < 0)
        goto release_sbox;
    if (keys.len % LANE) {
        PyErr_SetString(PyExc_ValueError, "keys must be whole 16-byte lanes");
        goto release_sbox;
    }
    if ((rcon_seq = PySequence_Fast(args[2], "rcon must be a sequence")) == NULL)
        goto release_sbox;
    rounds = PySequence_Fast_GET_SIZE(rcon_seq);
    if (rounds > (Py_ssize_t)sizeof(rcon)) {
        PyErr_SetString(PyExc_ValueError, "rcon holds too many round constants");
        goto release_rcon;
    }
    for (Py_ssize_t r = 0; r < rounds; r++) {
        long value = PyLong_AsLong(PySequence_Fast_GET_ITEM(rcon_seq, r));
        if (value == -1 && PyErr_Occurred())
            goto release_rcon;
        if (value < 0 || value > 0xFF) {
            PyErr_SetString(PyExc_ValueError, "each round constant must be a byte");
            goto release_rcon;
        }
        rcon[r] = (unsigned char)value;
    }
    if ((schedule = PyList_New(rounds + 1)) == NULL)
        goto release_rcon;
    for (Py_ssize_t r = 0; r <= rounds; r++) {
        PyObject *reg = PyBytes_FromStringAndSize(r ? NULL : keys.buf, keys.len);
        if (reg == NULL) {
            Py_CLEAR(schedule);
            goto release_rcon;
        }
        PyList_SET_ITEM(schedule, r, reg);
        regs[r] = (unsigned char *)PyBytes_AS_STRING(reg);
    }
    expand_lanes(sbox.buf, rcon, rounds, regs, keys.len);
release_rcon:
    Py_DECREF(rcon_seq);
release_sbox:
    PyBuffer_Release(&sbox);
release_keys:
    PyBuffer_Release(&keys);
    return schedule;
}

static PyMethodDef datapath_methods[] = {
    {"block_round", (PyCFunction)(void (*)(void))block_round, METH_FASTCALL, block_round_doc},
    {"expand_keys", (PyCFunction)(void (*)(void))expand_keys, METH_FASTCALL, expand_keys_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef datapath_module = {
    PyModuleDef_HEAD_INIT,
    "_datapath",
    "The AES-128 round and key schedule of spime.primitives, compiled.",
    -1,
    datapath_methods,
};

PyMODINIT_FUNC
PyInit__datapath(void)
{
    return PyModule_Create(&datapath_module);
}
