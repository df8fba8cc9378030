/*
 * The parser's token pass, compiled, for plain documents: what
 * repro.xtree.parse._parse builds from _TOKEN's tokens, in one C loop
 * over the source.  scan(source, text_label) returns
 *
 *     (label, parent, depth, text, position, kid_start, kid_ids,
 *      node_label, kid_labels, mask_classes, labels, canonical)
 *
 * -- the TreeColumns arguments, the set of element labels and the
 * canonical text, equal to the Python pass's -- or None.  Past the
 * columns the Python pass derives too (the kid spans, grouped by parent
 * with a counting pass instead of a sort), three more come out of the
 * same element stack for repro.docstore.layout and repro.hype.index:
 *
 *   - node_label / kid_labels: the layout's label ids, in the sorted
 *     label table's order (the labels are sorted once, here), -1 for
 *     a text node;
 *   - mask_classes: (sorted labels, distinct masks, local ids) -- the
 *     subtree mask OR-ed up at every close tag, in that table's bit
 *     order (text bit 0, label i bit 2 << i), as the document's
 *     distinct masks in first-appearance node order and one local id
 *     per node, little-endian u8 (at most 256 masks) or u16 (at most
 *     65536): the index record's own two parts.  None past 63 labels
 *     (a mask is 64 bits) or past 65536 distinct masks; the index then
 *     sweeps the tree instead.
 *
 * It accepts exactly this subset and nothing else:
 *
 *   - an ASCII str holding no C0 control but tab, line feed and
 *     carriage return (the others are no XML character);
 *   - the tags <NAME>, </NAME> and <NAME/>, NAME = [A-Za-z_][A-Za-z0-9_.-]*;
 *   - <?NAME...?> (NAME not "xml" in any case) and <!--...--> holding
 *     no '>', which are skipped, and at the very start one of the
 *     common spellings of the XML declaration (see declarations);
 *   - text runs holding no '&' and no '>', stripped of XML's white
 *     space (space, \t\n\r) and holding no '\r' inside what is kept;
 *     a run of only white space is dropped.
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
 * sys.intern object), one int object per element id is held by its
 * children's parent entries and its kid_ids entry, and an element with
 * one text child holds that child's str as its text().  The nodes are
 * recorded in C first; the columns are made only for a document that
 * was accepted.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Most labels a 64-bit subtree mask holds: text is bit 0. */
#define MASK_LABELS 63
/* Most distinct masks the emitted local ids (u8 or u16) can number. */
#define MAX_CLASSES 65536

typedef struct {
    int label;                /* label-table slot; -1 for a text node */
    Py_ssize_t parent, depth; /* parent node id, -1 at the root */
    Py_ssize_t position, kids;  /* element: sibling position, element kids */
    Py_ssize_t start, length; /* text: its stripped run; element: text() length */
    Py_ssize_t first, last;   /* element: first and last text child, or -1 */
    Py_ssize_t next;          /* text: the next text child of its parent */
    uint64_t mask;            /* element: labels below it, in scan order */
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

/* 1: XML's white space (what str.strip() strips of an XML text run).
 * Name characters: 1 may start a name, 2 may only continue one.  1: what
 * ends a plain text run -- '&', '>' and the C0 controls that are no XML
 * character. */
static unsigned char space[128], name_char[128], text_stop[128];

/* The XML declarations the scan reads itself, as they must be written:
 * anything else that starts with <?xml is the Python pass's. */
static const char *const declarations[] = {
    "<?xml version=\"1.0\"?>",
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
    "<?xml version=\"1.0\" encoding=\"utf-8\"?>",
};

/* One past the XML declaration at the start of src, or 0. */
static Py_ssize_t
declaration(const unsigned char *src, Py_ssize_t n)
{
    size_t k, length;
    for (k = 0; k < sizeof declarations / sizeof *declarations; k++) {
        length = strlen(declarations[k]);
        if ((size_t)n >= length && memcmp(src, declarations[k], length) == 0)
            return (Py_ssize_t)length;
    }
    return 0;
}

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

/* A label's bit in a scan-order mask: 2 << slot, none past MASK_LABELS
 * (the document then has no mask classes). */
static inline uint64_t
label_bit(int label)
{
    return label < MASK_LABELS ? (uint64_t)2 << label : 0;
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
    node->mask = 0;
    s->count = id + 1;
    return id;
}

/* A label slot and its name, for sorting the label table. */
typedef struct {
    const unsigned char *name;
    Py_ssize_t length;
    int slot;
} Named;

static int
by_name(const void *a, const void *b)
{
    const Named *x = a, *y = b;
    Py_ssize_t n = x->length < y->length ? x->length : y->length;
    int order = memcmp(x->name, y->name, (size_t)n);
    if (order)
        return order;
    return (x->length > y->length) - (x->length < y->length);
}

/* The label table in sorted order -- str order, which for ASCII names is
 * byte order: rank[slot] is a label's id and *sorted a new tuple of the
 * labels by id.  -1 with an exception set. */
static int
sort_labels(Scan *s, int *rank, PyObject **sorted)
{
    Py_ssize_t k;
    Named *names = PyMem_Malloc(sizeof(Named) * (size_t)(s->nlabels + 1));
    if (names == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (k = 0; k < s->nlabels; k++) {
        names[k].name = s->src + s->labels[k].start;
        names[k].length = s->labels[k].length;
        names[k].slot = (int)k;
    }
    qsort(names, (size_t)s->nlabels, sizeof(Named), by_name);
    if ((*sorted = PyTuple_New(s->nlabels)) != NULL)
        for (k = 0; k < s->nlabels; k++) {
            rank[names[k].slot] = (int)k;
            PyTuple_SET_ITEM(*sorted, k, Py_NewRef(s->labels[names[k].slot].str));
        }
    PyMem_Free(names);
    return *sorted == NULL ? -1 : 0;
}

/* The document's mask classes (see the header) as a new
 * (sorted, masks, local ids) tuple, or None past MASK_LABELS labels or
 * MAX_CLASSES distinct masks; NULL with an exception set.  The masks are
 * interned in node order in their scan-order form (renaming the bits is
 * one-to-one), and only the distinct ones are renamed into the sorted
 * table's bit order. */
static PyObject *
mask_classes(Scan *s, const int *rank, PyObject *sorted)
{
    Py_ssize_t count = s->count, room, nslots = 64, classes = 0, k;
    int bit;
    uint64_t *keys = NULL, *masks = NULL;
    uint32_t *slots = NULL, *local = NULL;
    PyObject *table = NULL, *ids = NULL, *result = NULL;
    if (s->nlabels > MASK_LABELS)
        Py_RETURN_NONE;
    room = count < MAX_CLASSES ? count : MAX_CLASSES;
    while (nslots < 2 * room)  /* open addressing, kept half empty */
        nslots *= 2;
    keys = PyMem_Malloc(sizeof(uint64_t) * (size_t)nslots);
    slots = PyMem_Calloc((size_t)nslots, sizeof(uint32_t));  /* class + 1 */
    masks = PyMem_Malloc(sizeof(uint64_t) * (size_t)room);
    local = PyMem_Malloc(sizeof(uint32_t) * (size_t)count);
    if (keys == NULL || slots == NULL || masks == NULL || local == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < count; k++) {
        uint64_t mask = s->nodes[k].mask;  /* 0 for a text node */
        size_t at = (size_t)((mask * 0x9E3779B97F4A7C15u) >> 32) & (size_t)(nslots - 1);
        while (slots[at] && keys[at] != mask)
            at = (at + 1) & (size_t)(nslots - 1);
        if (!slots[at]) {
            if (classes == MAX_CLASSES) {
                result = Py_NewRef(Py_None);
                goto done;
            }
            keys[at] = masks[classes] = mask;
            slots[at] = (uint32_t)++classes;
        }
        local[k] = slots[at] - 1;
    }
    if ((table = PyTuple_New(classes)) == NULL)
        goto done;
    for (k = 0; k < classes; k++) {
        uint64_t mask = masks[k], renamed = mask & 1;
        PyObject *value;
        for (bit = 0; bit < s->nlabels; bit++)
            if (mask & ((uint64_t)2 << bit))
                renamed |= (uint64_t)2 << rank[bit];
        if ((value = PyLong_FromUnsignedLongLong(renamed)) == NULL)
            goto done;
        PyTuple_SET_ITEM(table, k, value);
    }
    if (classes <= 256) {
        if ((ids = PyBytes_FromStringAndSize(NULL, count)) == NULL)
            goto done;
        unsigned char *out = (unsigned char *)PyBytes_AS_STRING(ids);
        for (k = 0; k < count; k++)
            out[k] = (unsigned char)local[k];
    } else {  /* u16, little-endian whatever the host */
        if ((ids = PyBytes_FromStringAndSize(NULL, 2 * count)) == NULL)
            goto done;
        unsigned char *out = (unsigned char *)PyBytes_AS_STRING(ids);
        for (k = 0; k < count; k++) {
            out[2 * k] = (unsigned char)(local[k] & 0xff);
            out[2 * k + 1] = (unsigned char)(local[k] >> 8);
        }
    }
    /* Tuples of str, int and bytes cannot be part of a cycle: the
     * collector need not walk them for the document's lifetime. */
    if ((result = PyTuple_Pack(3, sorted, table, ids)) != NULL) {
        PyObject_GC_UnTrack(sorted);
        PyObject_GC_UnTrack(table);
        PyObject_GC_UnTrack(result);
    }
done:
    PyMem_Free(keys);
    PyMem_Free(slots);
    PyMem_Free(masks);
    PyMem_Free(local);
    Py_XDECREF(table);
    Py_XDECREF(ids);
    return result;
}

/* The columns of an accepted document (see the header), or NULL. */
static PyObject *
columns(Scan *s, PyObject *text_label)
{
    Py_ssize_t count = s->count, k, t, kids = 0;
    PyObject *label, *parent, *depth, *text, *position, *kid_start,
        *node_label, *kid_ids = NULL, *kid_labels = NULL, *classes = NULL,
        *sorted = NULL, *labels = NULL, *canonical = NULL, *result = NULL;
    PyObject **ids = PyMem_Calloc((size_t)count, sizeof(PyObject *));
    Py_ssize_t *fill = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)count);
    int *rank = PyMem_Malloc(sizeof(int) * (size_t)(s->nlabels + 1));
    for (k = 0; k < count; k++)
        kids += s->nodes[k].kids;
    label = PyList_New(count);
    parent = PyList_New(count);
    depth = PyList_New(count);
    text = PyList_New(count);
    position = PyList_New(count);
    kid_start = PyList_New(count + 1);
    node_label = PyList_New(count);
    if (ids == NULL || fill == NULL || rank == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (!label || !parent || !depth || !text || !position || !kid_start
        || !node_label || !(kid_ids = PyList_New(kids))
        || !(kid_labels = PyList_New(kids)) || !(labels = PySet_New(NULL))
        || sort_labels(s, rank, &sorted) < 0)
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
    /* The kid spans: kid_start is the prefix sum of the kid counts, and
     * each element takes the next free slot of its parent's span, so a
     * span keeps document order without a sort.  A run of nodes with no
     * element kids repeats one start, and shares its int object. */
    for (kids = 0, k = 0; k <= count; k++) {
        PyObject *start = k && s->nodes[k - 1].kids == 0
                              ? Py_NewRef(PyList_GET_ITEM(kid_start, k - 1))
                              : PyLong_FromSsize_t(kids);
        if (start == NULL)
            goto done;
        PyList_SET_ITEM(kid_start, k, start);
        if (k < count) {
            fill[k] = kids;
            kids += s->nodes[k].kids;
        }
    }
    for (k = 0; k < count; k++) {
        Node *node = &s->nodes[k];
        PyObject *cells[5];
        if (node->label >= 0) {
            if ((ids[k] = PyLong_FromSsize_t(k)) == NULL)
                goto done;
            cells[0] = Py_NewRef(s->labels[node->label].str);
            cells[4] = PyLong_FromLong(rank[node->label]);
            if (node->parent >= 0 && cells[4] != NULL) {
                Py_ssize_t at = fill[node->parent]++;
                PyList_SET_ITEM(kid_ids, at, Py_NewRef(ids[k]));
                PyList_SET_ITEM(kid_labels, at, Py_NewRef(cells[4]));
            }
        } else {
            cells[0] = Py_NewRef(text_label);
            cells[4] = PyLong_FromLong(-1);
        }
        cells[1] = node->parent < 0 ? PyLong_FromLong(-1)
                                    : Py_NewRef(ids[node->parent]);
        cells[2] = PyLong_FromSsize_t(node->depth);
        cells[3] = PyLong_FromSsize_t(node->position);
        PyList_SET_ITEM(label, k, cells[0]);
        PyList_SET_ITEM(parent, k, cells[1]);
        PyList_SET_ITEM(depth, k, cells[2]);
        PyList_SET_ITEM(position, k, cells[3]);
        PyList_SET_ITEM(node_label, k, cells[4]);
        if (!cells[1] || !cells[2] || !cells[3] || !cells[4])
            goto done;
    }
    for (k = 0; k < s->nlabels; k++)
        if (PySet_Add(labels, s->labels[k].str) < 0)
            goto done;
    if ((classes = mask_classes(s, rank, sorted)) == NULL)
        goto done;
    canonical = PyUnicode_New(s->w, 127);
    if (canonical == NULL)
        goto done;
    memcpy(PyUnicode_DATA(canonical), s->out, (size_t)s->w);
    result = PyTuple_Pack(12, label, parent, depth, text, position, kid_start,
                          kid_ids, node_label, kid_labels, classes, labels,
                          canonical);
done:
    if (ids != NULL)
        for (k = 0; k < count; k++)
            Py_XDECREF(ids[k]);
    PyMem_Free(ids);
    PyMem_Free(fill);
    PyMem_Free(rank);
    Py_XDECREF(label);
    Py_XDECREF(parent);
    Py_XDECREF(depth);
    Py_XDECREF(text);
    Py_XDECREF(position);
    Py_XDECREF(kid_start);
    Py_XDECREF(node_label);
    Py_XDECREF(kid_ids);
    Py_XDECREF(kid_labels);
    Py_XDECREF(classes);
    Py_XDECREF(sorted);
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
                if (text_stop[src[k]])
                    goto refuse;
            while (i < end && space[src[i]])
                i++;
            for (k = end; k > i && space[src[k - 1]]; k--)
                ;
            /* A line end inside the text: XML reads it as a line feed. */
            if (k > i && memchr(src + i, '\r', (size_t)(k - i)))
                goto refuse;
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
                up->mask |= 1;
                memcpy(s.out + s.w, src + i, (size_t)(k - i));
                s.w += k - i;
            }
            i = end;
        } else if (i + 1 < n && (src[i + 1] == '?' || src[i + 1] == '!')) {
            /* <?NAME...?> or <!--...-->, up to its first '>' */
            int pi = src[i + 1] == '?';
            j = i + 2;
            if (!pi && !(j + 1 < n && src[j] == '-' && src[j + 1] == '-'))
                goto refuse;  /* CDATA, DOCTYPE, any other declaration */
            if (pi) {  /* the target: a NAME, then white space or '?' */
                Py_ssize_t target = j;
                if (!(j < n && name_char[src[j]] == 1))
                    goto refuse;
                for (j++; j < n && name_char[src[j]]; j++)
                    ;
                if (j - target == 3 && (src[target] | 0x20) == 'x'
                    && (src[target + 1] | 0x20) == 'm'
                    && (src[target + 2] | 0x20) == 'l') {
                    if (i != 0 || (end = declaration(src, n)) == 0)
                        goto refuse;
                    i = end;
                    continue;
                }
                if (!(j + 1 < n && (space[src[j]] || (src[j] == '?' && src[j + 1] == '>'))))
                    goto refuse;
            } else {
                j += 2;
            }
            hit = memchr(src + j, '>', (size_t)(n - j));
            if (hit == NULL)
                goto refuse;
            end = hit - src;
            if (pi ? !(end > j && src[end - 1] == '?')
                   : !(end >= j + 2 && src[end - 1] == '-' && src[end - 2] == '-'))
                goto refuse;
            for (k = j; k < end; k++)
                if (src[k] < 0x20 && !space[src[k]])
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
                if (s.top)  /* its labels, and its own, are its parent's */
                    s.nodes[s.stack[s.top - 1]].mask |=
                        s.nodes[node].mask | label_bit(s.nodes[node].label);
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
                } else if (s.top) {
                    s.nodes[s.stack[s.top - 1]].mask |= label_bit(label);
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
     " kid_start, kid_ids, node_label, kid_labels, mask_classes, labels,"
     " canonical) or None\n\n"
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
    int k;
    for (c = " \t\n\r"; *c; c++)
        space[(unsigned char)*c] = 1;
    for (k = 0; k < 0x20; k++)
        text_stop[k] = !space[k];
    text_stop['&'] = text_stop['>'] = 1;
    for (c = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"; *c; c++)
        name_char[(unsigned char)*c] = 1;
    for (c = "0123456789.-"; *c; c++)
        name_char[(unsigned char)*c] = 2;
    return PyModule_Create(&scan_module);
}
