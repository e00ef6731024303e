/* Compiled breadth-first search kernel over bit-packed states.
 *
 * Same contract as ``bfs`` in _kernel_py.py: the same outcome codes, the same
 * FIFO order over states and the same candidate order per state, so the first
 * goal hit is the same lexicographically smallest shortest plan.  Plain C
 * without the Python C-API: kernel.py loads the shared library with ctypes and
 * makes one gr_bfs call per search, passing flat arrays.  gr_bfs frees every
 * buffer of its search before it returns; only a plan comes back, which
 * gr_free releases.
 *
 * States are bit vectors of any width, `words` 64-bit words each; the visited
 * set is an open-addressing table of uint32 indices into a flat state arena.
 * A candidate's guard is a list of (care, want) clauses over the view word of
 * its subject (see encoding.py), which is at most twice as wide as a state.
 */

#define _POSIX_C_SOURCE 199309L  /* clock_gettime under -std=c99 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define TIME_CHECK_INTERVAL 16384  /* about this many candidate tests between clock readings */
#define ADD 1      /* cand_flags: the request sets its bit (else clears it) */
#define GUARDED 2  /* cand_flags: the guard is not always true */

enum { REACHABLE, UNREACHABLE, DEPTH_EXCEEDED, STATES_EXCEEDED, MILLIS_EXCEEDED };
#define OUT_OF_MEMORY (-1)

/* Mirrored field for field by _Search in _kernel_ctypes.py.  Word arrays hold
 * `words` (or view_words) native uint64 words per entry, least significant first. */
struct gr_search {
    /* instance */
    int32_t n_slots, n_groups, mem_offset;
    int32_t words;                 /* 64-bit words per state, at least 1 */
    int32_t view_words;            /* low words of the view that any clause reads, 1..2 * words */
    const int32_t *seg_offsets;    /* [n_groups] */
    const int32_t *closure_start;  /* [n_groups + 1], into closure */
    const int32_t *closure;        /* junior-or-equal groups of each group */
    int32_t n_cands;
    const int32_t *cand_bit;
    const int32_t *cand_flags;     /* ADD | GUARDED */
    const int32_t *cand_subject;   /* -1 = user, else group index */
    const int32_t *clause_start;   /* [n_cands + 1], into care/want */
    const uint64_t *care;          /* [clauses][view_words] */
    const uint64_t *want;
    /* query: the goal holds when eff & goal_mask == goal_target over the
     * user's effective value bits */
    const uint64_t *start;         /* [words] */
    const uint64_t *goal_mask;     /* [words] */
    const uint64_t *goal_target;   /* [words] */
    int32_t max_depth;
    uint32_t max_states;
    int64_t max_millis;
    /* results; gr_free releases the plan */
    int32_t *plan;                 /* [plan_len] candidate indices */
    int32_t plan_len;
    uint32_t n_states;
};

struct run {
    int words;                     /* as in struct gr_search */
    uint64_t *arena;               /* [capacity][words]: states in discovery order */
    int32_t *links;                /* [capacity][3]: parent, candidate, depth */
    uint64_t capacity;
    uint32_t *table;               /* stored index + 1; 0 means empty */
    uint64_t table_mask, table_count;
    uint64_t *scratch;             /* succ [words], view [2 * words + 1], tmp [2 * (words + 1)] */
};

static int get_bit(const uint64_t *v, int bit) {
    return (v[bit >> 6] >> (bit & 63)) & 1;
}

/* dst[at, at + len) |= v[off, off + len), for a v of `words` words; dst must
 * have a word to spare after the last bit it receives. */
static void or_bits(uint64_t *dst, int at, const uint64_t *v, int words, int off, int len) {
    for (int i = 0; i < len; i += 64) {
        int w = (off + i) >> 6, b = (off + i) & 63;
        uint64_t chunk = (w < words ? v[w] >> b : 0) | (b && w + 1 < words ? v[w + 1] << (64 - b) : 0);
        if (len - i < 64)
            chunk &= ((uint64_t)1 << (len - i)) - 1;
        w = (at + i) >> 6, b = (at + i) & 63;
        dst[w] |= chunk << b;
        if (b)
            dst[w + 1] |= chunk >> (64 - b);
    }
}

static void eff_group_bits(const struct gr_search *s, const uint64_t *state, int j, uint64_t *out) {
    for (int i = s->closure_start[j]; i < s->closure_start[j + 1]; i++)
        or_bits(out, 0, state, s->words, s->seg_offsets[s->closure[i]], s->n_slots);
}

/* out |= the user's effective groups as bits: the union of the closures of the groups held. */
static void eff_groups(const struct gr_search *s, const uint64_t *state, uint64_t *out) {
    for (int j = 0; j < s->n_groups; j++)
        if (get_bit(state, s->mem_offset + j))
            for (int i = s->closure_start[j]; i < s->closure_start[j + 1]; i++)
                out[s->closure[i] >> 6] |= (uint64_t)1 << (s->closure[i] & 63);
}

static void eff_user_bits(const struct gr_search *s, const uint64_t *state, const uint64_t *groups,
                          uint64_t *out) {
    or_bits(out, 0, state, s->words, 0, s->n_slots);
    for (int k = 0; k < s->n_groups; k++)
        if (get_bit(groups, k))
            or_bits(out, 0, state, s->words, s->seg_offsets[k], s->n_slots);
}

/* direct | eff << S | mem << 2S | effmem << (2S + G) into 2 * words + 1 words;
 * tmp holds two temporaries of words + 1 words. */
static void make_view(const struct gr_search *s, const uint64_t *state, int subject, uint64_t *out,
                      uint64_t *tmp) {
    int S = s->n_slots, G = s->n_groups, words = s->words;
    uint64_t *eff = tmp, *effmem = tmp + words + 1;
    memset(tmp, 0, 2 * (words + 1) * sizeof *tmp);
    eff_groups(s, state, effmem);
    memset(out, 0, (2 * words + 1) * sizeof *out);
    if (subject < 0) {
        or_bits(out, 0, state, words, 0, S);
        eff_user_bits(s, state, effmem, eff);
    } else {
        or_bits(out, 0, state, words, s->seg_offsets[subject], S);
        eff_group_bits(s, state, subject, eff);
    }
    or_bits(out, S, eff, words, 0, S);
    or_bits(out, 2 * S, state, words, s->mem_offset, G);
    or_bits(out, 2 * S + G, effmem, words, 0, G);
}

static int guard_holds(const struct gr_search *s, int c, const uint64_t *view) {
    for (int k = s->clause_start[c]; k < s->clause_start[c + 1]; k++) {
        const uint64_t *care = s->care + (size_t)k * s->view_words;
        const uint64_t *want = s->want + (size_t)k * s->view_words;
        int w = 0;
        while (w < s->view_words && (view[w] & care[w]) == want[w])
            w++;
        if (w == s->view_words)
            return 1;
    }
    return 0;
}

/* tmp as for make_view. */
static int goal_holds(const struct gr_search *s, const uint64_t *state, uint64_t *tmp) {
    uint64_t *groups = tmp, *eff = tmp + s->words + 1;
    memset(tmp, 0, 2 * (s->words + 1) * sizeof *tmp);
    eff_groups(s, state, groups);
    eff_user_bits(s, state, groups, eff);
    for (int w = 0; w < s->words; w++)
        if ((eff[w] & s->goal_mask[w]) != s->goal_target[w])
            return 0;
    return 1;
}

static uint64_t mix64(uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

static uint64_t hash_state(const uint64_t *v, int words) {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (int w = 0; w < words; w++)
        h = mix64(h ^ (v[w] + 0x632BE59BD9B4E019ULL * (w + 1)));
    return h;
}

/* The slot of the state equal to v, or the empty slot where v belongs. */
static uint64_t probe(const struct run *r, const uint32_t *table, uint64_t mask, const uint64_t *v) {
    uint64_t pos = hash_state(v, r->words) & mask;
    while (table[pos] && memcmp(r->arena + (uint64_t)(table[pos] - 1) * r->words, v, r->words * sizeof *v))
        pos = (pos + 1) & mask;
    return pos;
}

/* 1 if v was new and now maps to index, 0 if already present. */
static int table_insert(struct run *r, const uint64_t *v, uint32_t index) {
    uint64_t pos = probe(r, r->table, r->table_mask, v);
    if (r->table[pos])
        return 0;
    if ((r->table_count + 1) * 10 >= (r->table_mask + 1) * 7) {
        uint64_t mask = r->table_mask * 2 + 1;
        uint32_t *fresh = calloc(mask + 1, sizeof *fresh);
        if (!fresh)
            return OUT_OF_MEMORY;
        for (uint64_t i = 0; i <= r->table_mask; i++)
            if (r->table[i])
                fresh[probe(r, fresh, mask, r->arena + (uint64_t)(r->table[i] - 1) * r->words)] = r->table[i];
        free(r->table);
        r->table = fresh;
        r->table_mask = mask;
        pos = probe(r, fresh, mask, v);
    }
    r->table[pos] = index + 1;
    r->table_count++;
    return 1;
}

/* Appends state n; returns 0, or OUT_OF_MEMORY. */
static int push_state(struct run *r, uint64_t n, const uint64_t *v, int32_t parent, int32_t cand, int32_t depth) {
    if (n == r->capacity) {
        uint64_t *arena = realloc(r->arena, 2 * r->capacity * r->words * sizeof *arena);
        if (arena)
            r->arena = arena;
        int32_t *links = realloc(r->links, 2 * r->capacity * 3 * sizeof *links);
        if (links)
            r->links = links;
        if (!arena || !links)
            return OUT_OF_MEMORY;
        r->capacity *= 2;
    }
    memcpy(r->arena + n * r->words, v, r->words * sizeof *v);
    r->links[3 * n] = parent;
    r->links[3 * n + 1] = cand;
    r->links[3 * n + 2] = depth;
    return 0;
}

static double now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

static int search(struct gr_search *s, struct run *r) {
    int words = s->words;
    uint64_t *succ = r->scratch, *view = succ + words, *tmp = view + 2 * words + 1;
    if (goal_holds(s, s->start, tmp))
        return REACHABLE;
    int depth_cut = 0;
    uint64_t n = 1, expanded = 0;
    uint64_t every = TIME_CHECK_INTERVAL / (s->n_cands + 1) + 1;  /* states between clock readings */
    if (push_state(r, 0, s->start, -1, -1, 0) || table_insert(r, s->start, 0) < 0)
        return OUT_OF_MEMORY;
    double deadline = now_ms() + (double)s->max_millis;

    for (uint64_t head = 0; head < n; head++) {
        int32_t depth = r->links[3 * head + 2];
        if (depth >= s->max_depth) {
            depth_cut = 1;
            continue;
        }
        if (++expanded % every == 0 && now_ms() > deadline) {
            s->n_states = (uint32_t)n;
            return MILLIS_EXCEEDED;
        }
        int view_of = -2;  /* the subject whose view of this state is in `view` */
        for (int c = 0; c < s->n_cands; c++) {
            const uint64_t *state = r->arena + head * words;  /* the arena moves as it grows */
            int bit = s->cand_bit[c], flags = s->cand_flags[c];
            if (get_bit(state, bit) == (flags & ADD))
                continue;  /* the request would not change the state */
            if (flags & GUARDED) {
                if (view_of != s->cand_subject[c])
                    make_view(s, state, view_of = s->cand_subject[c], view, tmp);
                if (!guard_holds(s, c, view))
                    continue;
            }
            memcpy(succ, state, words * sizeof *succ);
            succ[bit >> 6] ^= (uint64_t)1 << (bit & 63);
            int fresh = table_insert(r, succ, (uint32_t)n);
            if (fresh < 0)
                return OUT_OF_MEMORY;
            if (!fresh)
                continue;
            if (n >= s->max_states) {
                s->n_states = (uint32_t)n;
                return STATES_EXCEEDED;
            }
            if (push_state(r, n, succ, (int32_t)head, c, depth + 1))
                return OUT_OF_MEMORY;
            n++;
            if (goal_holds(s, succ, tmp)) {
                s->n_states = (uint32_t)n;
                s->plan_len = depth + 1;
                s->plan = malloc((size_t)s->plan_len * sizeof *s->plan);
                if (!s->plan)
                    return OUT_OF_MEMORY;
                for (int64_t at = n - 1, i = s->plan_len - 1; at > 0; at = r->links[3 * at])
                    s->plan[i--] = r->links[3 * at + 1];
                return REACHABLE;
            }
        }
    }
    s->n_states = (uint32_t)n;
    return depth_cut ? DEPTH_EXCEEDED : UNREACHABLE;
}

int gr_bfs(struct gr_search *s) {
    s->plan = NULL;
    s->plan_len = 0;
    s->n_states = 1;
    struct run r = {0};
    r.words = s->words;
    r.capacity = 1 << 10;
    r.arena = malloc(r.capacity * r.words * sizeof *r.arena);
    r.links = malloc(r.capacity * 3 * sizeof *r.links);
    r.table_mask = (1 << 12) - 1;
    r.table = calloc(r.table_mask + 1, sizeof *r.table);
    r.scratch = malloc((5 * (size_t)r.words + 3) * sizeof *r.scratch);
    int code = r.arena && r.links && r.table && r.scratch ? search(s, &r) : OUT_OF_MEMORY;
    free(r.arena);
    free(r.links);
    free(r.table);
    free(r.scratch);
    return code;
}

void gr_free(struct gr_search *s) {
    free(s->plan);
    s->plan = NULL;
}
