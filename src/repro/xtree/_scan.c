/*
 * The parser's token pass, compiled, for plain documents: what
 * repro.xtree.parse._parse builds from _TOKEN's tokens, in one C loop
 * over the source.  scan(source, text_label) returns
 *
 *     (label, parent, depth, text, position, kid_counts, elements,
 *      labels, canonical)
 *
 * -- the TreeColumns arguments, the set of element labels and the
 * canonical text, equal to the Python pass's -- or None.  It accepts
 * exactly this subset and nothing else:
 *
 *   - an ASCII str;
 *   - the tags <NAME>, </NAME> and <NAME/>, NAME = [A-Za-z_][A-Za-z0-9_.-]*;
 *   - <?...?> and <!--...--> holding no '>', which are skipped;
 *   - text runs holding no '&' and no '>', stripped of str.strip()'s
 *     ASCII whitespace (space, \t\n\v\f\r, 0x1c-0x1f); a run of only
 *     whitespace is dropped.
 *
 * Anything else -- non-ASCII text, an attribute, an entity, a '>' in
 * text, CDATA, a DOCTYPE, a '<' with no tag, and every malformed
 * document -- returns None, raises nothing, and the caller runs the
 * Python pass, which stays the specification and the only code that
 * raises XMLParseError.  Every step is a bounded scan forward, so a
 * refusal costs O(n) at most.  tests/test_parse_native.py holds the two
 * passes to identical results.
 *
 * What the Python pass shares, this shares: labels are interned (the
 * sys.intern object), one int object per element id is held by both
 * the elements column and its children's parent entries, and an
 * element with one text child holds that child's str as its text().
 * The nodes are recorded in C first; the columns are made only for a
 * document that was accepted.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct {
    int label;                /* label-table slot; -1 for a text node */
    Py_ssize_t parent, depth; /* parent node id, -1 at the root */
    Py_ssize_t position, kids;  /* element: sibling position, element kids */
    Py_ssize_t start, length; /* text: its stripped run; element: text() length */
    Py_ssize_t first, last;   /* element: first and last text child, or -1 */
    Py_ssize_t next;          /* text: the next text child of its parent */
} Node;

typedef struct {
    Py_ssize_t start, length; /* the name's first spelling in the source */
    size_t hash;
    PyObject *str;            /* owned, interned */
} Label;

typedef struct {
    const unsigned char *src;
    Node *nodes;
    Py_ssize_t count, node_room;
    Label *labels;
    Py_ssize_t nlabels, label_room;
    Py_ssize_t *slots;        /* open addressing: label index + 1, 0 empty */
    Py_ssize_t nslots;
    Py_ssize_t *stack;        /* the open elements' ids, root first */
    Py_ssize_t top, stack_room;
    char *out;                /* the canonical text */
    Py_ssize_t w;
} Scan;

/* 1: str.strip() whitespace.  Name characters: 1 may start a name, 2 may
 * only continue one. */
static unsigned char space[128], name_char[128];

/* A PyMem block of *room items grown to hold need; NULL (MemoryError set,
 * the block untouched) if it cannot be. */
static void *
grown(void *items, Py_ssize_t *room, Py_ssize_t need, size_t size)
{
    Py_ssize_t more = *room ? *room : 16;
    while (more < need)
        more *= 2;
    items = PyMem_Realloc(items, (size_t)more * size);
    if (items == NULL)
        return PyErr_NoMemory();
    *room = more;
    return items;
}

#define RESERVE(array, room, need, on_failure)                              \
    if ((need) > (room)) {                                                  \
        void *more_ = grown((array), &(room), (need), sizeof *(array));     \
        if (more_ == NULL)                                                  \
            on_failure;                                                     \
        (array) = more_;                                                    \
    }

/* The label slot of src[start:start + length], interned on first sight;
 * -1 with an exception set. */
static int
label_of(Scan *s, Py_ssize_t start, Py_ssize_t length)
{
    size_t hash = 14695981039346656037u, mask;
    Py_ssize_t k, slot;
    Label *label;
    for (k = 0; k < length; k++)
        hash = (hash ^ s->src[start + k]) * 1099511628211u;
    if (2 * (s->nlabels + 1) > s->nslots) {  /* keep the table half empty */
        Py_ssize_t nslots = s->nslots ? 2 * s->nslots : 64;
        Py_ssize_t *slots = PyMem_Calloc((size_t)nslots, sizeof(Py_ssize_t));
        if (slots == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (k = 0; k < s->nlabels; k++) {
            slot = (Py_ssize_t)(s->labels[k].hash & (size_t)(nslots - 1));
            while (slots[slot])
                slot = (slot + 1) & (nslots - 1);
            slots[slot] = k + 1;
        }
        PyMem_Free(s->slots);
        s->slots = slots;
        s->nslots = nslots;
    }
    mask = (size_t)(s->nslots - 1);
    for (slot = (Py_ssize_t)(hash & mask); s->slots[slot];
         slot = (Py_ssize_t)((slot + 1) & mask)) {
        label = &s->labels[s->slots[slot] - 1];
        if (label->hash == hash && label->length == length
            && memcmp(s->src + label->start, s->src + start, length) == 0)
            return (int)(s->slots[slot] - 1);
    }
    if (s->nlabels >= INT_MAX) {
        PyErr_NoMemory();
        return -1;
    }
    RESERVE(s->labels, s->label_room, s->nlabels + 1, return -1);
    label = &s->labels[s->nlabels];
    label->str = PyUnicode_FromStringAndSize((const char *)s->src + start, length);
    if (label->str == NULL)
        return -1;
    PyUnicode_InternInPlace(&label->str);
    label->start = start;
    label->length = length;
    label->hash = hash;
    s->slots[slot] = ++s->nlabels;
    return (int)(s->nlabels - 1);
}

/* A new node under the innermost open element; its id, or -1. */
static Py_ssize_t
add_node(Scan *s, int label)
{
    Py_ssize_t id = s->count;
    Node *node;
    RESERVE(s->nodes, s->node_room, id + 1, return -1);
    node = &s->nodes[id];
    node->label = label;
    node->parent = s->top ? s->stack[s->top - 1] : -1;
    node->depth = s->top;
    node->position = node->kids = node->start = node->length = 0;
    node->first = node->last = node->next = -1;
    s->count = id + 1;
    return id;
}

/* The columns of an accepted document (see the header), or NULL. */
static PyObject *
columns(Scan *s, PyObject *text_label)
{
    Py_ssize_t count = s->count, k, t, e = 0, nelements = 0;
    PyObject *label, *parent, *depth, *text, *position, *kid_counts,
        *elements = NULL, *labels = NULL, *canonical = NULL, *result = NULL;
    PyObject **ids = PyMem_Calloc((size_t)count, sizeof(PyObject *));
    for (k = 0; k < count; k++)
        nelements += s->nodes[k].label >= 0;
    label = PyList_New(count);
    parent = PyList_New(count);
    depth = PyList_New(count);
    text = PyList_New(count);
    position = PyList_New(count);
    kid_counts = PyList_New(count);
    if (ids == NULL || !label || !parent || !depth || !text || !position
        || !kid_counts || !(elements = PyList_New(nelements))
        || !(labels = PySet_New(NULL)))
        goto done;
    /* Backwards, so an element's text children have their str first. */
    for (k = count - 1; k >= 0; k--) {
        Node *node = &s->nodes[k];
        PyObject *value;
        if (node->label < 0) {
            value = PyUnicode_FromStringAndSize(
                (const char *)s->src + node->start, node->length);
        } else if (node->first == node->last) {  /* none, or one to share */
            value = node->first < 0 ? PyUnicode_New(0, 0)
                                    : Py_NewRef(PyList_GET_ITEM(text, node->first));
        } else if ((value = PyUnicode_New(node->length, 127)) != NULL) {
            char *into = (char *)PyUnicode_DATA(value);
            for (t = node->first; t >= 0; t = s->nodes[t].next) {
                memcpy(into, s->src + s->nodes[t].start, s->nodes[t].length);
                into += s->nodes[t].length;
            }
        }
        if (value == NULL)
            goto done;
        PyList_SET_ITEM(text, k, value);
    }
    for (k = 0; k < count; k++) {
        Node *node = &s->nodes[k];
        PyObject *cells[4];
        if (node->label >= 0) {
            if ((ids[k] = PyLong_FromSsize_t(k)) == NULL)
                goto done;
            PyList_SET_ITEM(elements, e++, ids[k]);  /* the list owns it */
            cells[0] = Py_NewRef(s->labels[node->label].str);
        } else {
            cells[0] = Py_NewRef(text_label);
        }
        cells[1] = node->parent < 0 ? PyLong_FromLong(-1)
                                    : Py_NewRef(ids[node->parent]);
        cells[2] = PyLong_FromSsize_t(node->depth);
        cells[3] = PyLong_FromSsize_t(node->position);
        PyList_SET_ITEM(label, k, cells[0]);
        PyList_SET_ITEM(parent, k, cells[1]);
        PyList_SET_ITEM(depth, k, cells[2]);
        PyList_SET_ITEM(position, k, cells[3]);
        PyList_SET_ITEM(kid_counts, k, PyLong_FromSsize_t(node->kids));
        if (!cells[1] || !cells[2] || !cells[3]
            || !PyList_GET_ITEM(kid_counts, k))
            goto done;
    }
    for (k = 0; k < s->nlabels; k++)
        if (PySet_Add(labels, s->labels[k].str) < 0)
            goto done;
    canonical = PyUnicode_New(s->w, 127);
    if (canonical == NULL)
        goto done;
    memcpy(PyUnicode_DATA(canonical), s->out, (size_t)s->w);
    result = PyTuple_Pack(9, label, parent, depth, text, position,
                          kid_counts, elements, labels, canonical);
done:
    if (ids == NULL)
        PyErr_NoMemory();
    PyMem_Free(ids);
    Py_XDECREF(label);
    Py_XDECREF(parent);
    Py_XDECREF(depth);
    Py_XDECREF(text);
    Py_XDECREF(position);
    Py_XDECREF(kid_counts);
    Py_XDECREF(elements);
    Py_XDECREF(labels);
    Py_XDECREF(canonical);
    return result;
}

static PyObject *
scan(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Scan s;
    const unsigned char *src, *hit;
    Py_ssize_t n, i = 0, j, k, end, node;
    PyObject *result = NULL;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "scan(source, text_label)");
        return NULL;
    }
    if (!PyUnicode_Check(args[0]) || !PyUnicode_IS_ASCII(args[0]))
        Py_RETURN_NONE;
    memset(&s, 0, sizeof s);
    s.src = src = (const unsigned char *)PyUnicode_DATA(args[0]);
    n = PyUnicode_GET_LENGTH(args[0]);
    /* The canonical text is never longer than the source. */
    if ((s.out = PyMem_Malloc((size_t)n + 1)) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    RESERVE(s.nodes, s.node_room, n / 32 + 16, goto fail);
    while (i < n) {
        if (src[i] != '<') {  /* a text run, up to the next '<' */
            hit = memchr(src + i, '<', (size_t)(n - i));
            end = hit ? hit - src : n;
            for (k = i; k < end; k++)
                if (src[k] == '&' || src[k] == '>')
                    goto refuse;
            while (i < end && space[src[i]])
                i++;
            for (k = end; k > i && space[src[k - 1]]; k--)
                ;
            if (k > i) {
                Node *up;
                if (s.top == 0)  /* text outside the root element */
                    goto refuse;
                if ((node = add_node(&s, -1)) < 0)
                    goto fail;
                s.nodes[node].start = i;
                s.nodes[node].length = k - i;
                up = &s.nodes[s.nodes[node].parent];
                if (up->first < 0)
                    up->first = node;
                else
                    s.nodes[up->last].next = node;
                up->last = node;
                up->length += k - i;
                memcpy(s.out + s.w, src + i, (size_t)(k - i));
                s.w += k - i;
            }
            i = end;
        } else if (i + 1 < n && (src[i + 1] == '?' || src[i + 1] == '!')) {
            /* <?...?> or <!--...-->, up to its first '>' */
            int pi = src[i + 1] == '?';
            j = i + 2;
            if (!pi && !(j + 1 < n && src[j] == '-' && src[j + 1] == '-'))
                goto refuse;  /* CDATA, DOCTYPE, any other declaration */
            j += pi ? 0 : 2;
            hit = memchr(src + j, '>', (size_t)(n - j));
            if (hit == NULL)
                goto refuse;
            end = hit - src;
            if (pi ? !(end > j && src[end - 1] == '?')
                   : !(end >= j + 2 && src[end - 1] == '-' && src[end - 2] == '-'))
                goto refuse;
            i = end + 1;
        } else {  /* <NAME>, <NAME/> or </NAME> */
            int close = i + 1 < n && src[i + 1] == '/';
            Py_ssize_t name = i + 1 + close;
            j = name;
            if (j < n && name_char[src[j]] == 1)
                for (j++; j < n && name_char[src[j]]; j++)
                    ;
            if (j == name)
                goto refuse;
            if (j < n && src[j] == '>')
                end = j + 1;
            else if (!close && j + 1 < n && src[j] == '/' && src[j + 1] == '>')
                end = j + 2;
            else
                goto refuse;
            if (close) {
                Label *label;
                if (s.top == 0)
                    goto refuse;
                node = s.stack[--s.top];
                label = &s.labels[s.nodes[node].label];
                if (label->length != j - name
                    || memcmp(src + label->start, src + name, (size_t)(j - name)))
                    goto refuse;
                if (s.count == node + 1) {  /* childless: <NAME/> */
                    s.out[s.w - 1] = '/';
                    s.out[s.w++] = '>';
                    i = end;
                    continue;
                }
            } else {
                int label;
                if (s.top == 0 && s.count > 0)  /* a second root */
                    goto refuse;
                if ((label = label_of(&s, name, j - name)) < 0
                    || (node = add_node(&s, label)) < 0)
                    goto fail;
                s.nodes[node].position =
                    s.top ? ++s.nodes[s.stack[s.top - 1]].kids : 1;
                if (end == j + 1) {
                    RESERVE(s.stack, s.stack_room, s.top + 1, goto fail);
                    s.stack[s.top++] = node;
                }
            }
            memcpy(s.out + s.w, src + i, (size_t)(end - i));  /* as written */
            s.w += end - i;
            i = end;
        }
    }
    if (s.top == 0 && s.count > 0) {
        result = columns(&s, args[1]);
        goto fail;  /* release the scan either way */
    }
refuse:
    result = Py_NewRef(Py_None);
fail:
    for (k = 0; k < s.nlabels; k++)
        Py_DECREF(s.labels[k].str);
    PyMem_Free(s.labels);
    PyMem_Free(s.slots);
    PyMem_Free(s.nodes);
    PyMem_Free(s.stack);
    PyMem_Free(s.out);
    return result;
}

static PyMethodDef scan_methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(source, text_label) -> (label, parent, depth, text, position,"
     " kid_counts, elements, labels, canonical) or None\n\n"
     "The parser's token pass over a plain document (see repro.xtree.parse)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef scan_module = {
    PyModuleDef_HEAD_INIT, "_scan",
    "The compiled token pass of repro.xtree.parse.", -1, scan_methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    const char *c;
    for (c = " \t\n\v\f\r\x1c\x1d\x1e\x1f"; *c; c++)
        space[(unsigned char)*c] = 1;
    for (c = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"; *c; c++)
        name_char[(unsigned char)*c] = 1;
    for (c = "0123456789.-"; *c; c++)
        name_char[(unsigned char)*c] = 2;
    return PyModule_Create(&scan_module);
}
