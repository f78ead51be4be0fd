/*
 * Compiled containment loop behind repro.adversary.soap.SoapAttack.
 *
 * Runs the inline_prune branch of SoapAttack.contain_node for one target --
 * mint a clone, attach it at degree 1, and while the target is over d_max
 * drop the peer of highest (or lowest) degree, repr-sorted ties broken by
 * rng.choice -- on the MT19937 replay of pairing.c, so every tie-break
 * draws what the Python loop draws and the rng ends where it would end.
 * rng.choice(seq) is seq[_randbelow(len(seq))]: the draw depends on the
 * tie's size only, and the chosen peer is that index of the stable repr
 * sort of the tie, taken in bucket order.
 *
 * Nodes are keys: a benign node is its index in the campaign's benign
 * population (0 .. population-1, repr rank rank[index], degree
 * degree[index]); the j-th clone minted for the current target is
 * population + j, of degree 1.  The campaign's only mutations are the ones
 * made here, so degree[] stays exact: a pruned peer loses one, and a
 * target ends at its peer count.  Repr order:
 *
 *   benign vs benign  -- rank (equal reprs share a rank)
 *   benign vs clone   -- benign first iff rank < clone_slot, the number of
 *                        benign reprs sorting before the clone repr prefix
 *   clone vs clone    -- the strcmp order of their zero-padded numbers,
 *                        which is numeric order only up to 999999
 *
 * The peer list keeps bucket order: the target's peers as given, then the
 * clones in mint order, victims removed in place; a peer's degree stays
 * put while it is listed.  Scalars travel in io[] (the SOAP_* slots
 * below); the caller passes every buffer.
 */
#include <stdint.h>
#include <string.h>

/* pairing.c */
int32_t repro_mt_randbelow(uint32_t *state, uint32_t m);

enum {
    SOAP_POPULATION, /* benign population size */
    SOAP_CLONE_SLOT, /* benign reprs that sort before every clone repr */
    SOAP_HIGHEST,    /* 1: HIGHEST_DEGREE, 0: LOWEST_DEGREE */
    SOAP_D_MAX,
    SOAP_CAPACITY,   /* rows of work[] */
    SOAP_TARGET,     /* in: the target's key */
    SOAP_COUNTER,    /* in/out: number of the next clone */
    SOAP_PEERS,      /* in/out: the target's peer count */
    SOAP_BENIGN,     /* in/out: benign peers left */
    SOAP_CLONES,     /* in/out: clones minted for this target */
    SOAP_LIMIT,      /* in: stop minting when SOAP_CLONES reaches it */
    SOAP_NAME_BYTES, /* out: bytes written to names[] by this call */
};

/* Digits of `number` as "%06d" prints it. */
static int digits(uint64_t number)
{
    int count = 1;
    while (number >= 10) {
        number /= 10;
        count++;
    }
    return count < 6 ? 6 : count;
}

/* Whether clone number a's name sorts before clone number b's. */
static int clone_before(uint64_t a, uint64_t b)
{
    int da = digits(a), db = digits(b);
    if (da == db)
        return a < b;
    /* Pad the shorter with zeros; on a tie the shorter (a prefix) is first. */
    if (da < db) {
        for (int d = da; d < db; d++)
            a *= 10;
        return a <= b;
    }
    for (int d = db; d < da; d++)
        b *= 10;
    return a < b;
}

/* What the loop knows of the nodes behind the keys. */
struct nodes {
    const int64_t *rank;
    int64_t *degree;
    int64_t population;
    int64_t clone_slot;
    uint64_t first_clone; /* number of the target's clone 0 */
};

static int64_t degree_of(const struct nodes *o, int64_t key)
{
    return key < o->population ? o->degree[key] : 1;
}

/* Whether key a's repr sorts before key b's. */
static int before(const struct nodes *o, int64_t a, int64_t b)
{
    if (a < o->population) {
        if (b < o->population)
            return o->rank[a] < o->rank[b];
        return o->rank[a] < o->clone_slot;
    }
    if (b < o->population)
        return o->rank[b] >= o->clone_slot;
    return clone_before(o->first_clone + (uint64_t)(a - o->population),
                        o->first_clone + (uint64_t)(b - o->population));
}

/* Writes prefix + "%06d" of number; returns the bytes written. */
static int64_t write_name(char *out, const char *prefix, int64_t prefix_len, uint64_t number)
{
    int width = digits(number);
    memcpy(out, prefix, (size_t)prefix_len);
    for (int d = width - 1; d >= 0; d--) {
        out[prefix_len + d] = (char)('0' + number % 10);
        number /= 10;
    }
    return prefix_len + width;
}

/*
 * Mints clones for the target until it has no benign peer left or
 * io[SOAP_CLONES] reaches io[SOAP_LIMIT]; a later call with a higher limit
 * carries on where this one stopped.  work[] holds two columns of
 * io[SOAP_CAPACITY] rows, peer keys and scratch; the first call for a
 * target finds its peers' keys in the first io[SOAP_PEERS] rows.  ops[]
 * receives, in order, ~j for the insertion of clone j and the key of each
 * pruned peer; names[] the new clones' names, space separated.  Returns the number of ops, or -1, changing nothing,
 * when the peer list would outgrow work[].
 */
int64_t repro_soap_contain(int64_t *io, uint32_t *state, const int64_t *rank,
                           int64_t *degree, int64_t *work, int64_t *ops, char *names,
                           const char *prefix, int64_t prefix_len)
{
    const int64_t capacity = io[SOAP_CAPACITY];
    const int64_t d_max = io[SOAP_D_MAX];
    const int highest = io[SOAP_HIGHEST] != 0;
    int64_t *key = work, *tie = work + capacity;
    int64_t count = io[SOAP_PEERS];
    int64_t benign = io[SOAP_BENIGN];
    int64_t clones = io[SOAP_CLONES];
    const int64_t limit = io[SOAP_LIMIT];
    const uint64_t counter = (uint64_t)io[SOAP_COUNTER];
    const int64_t started = clones;
    struct nodes nodes = {
        rank, degree, io[SOAP_POPULATION], io[SOAP_CLONE_SLOT], counter - (uint64_t)clones
    };
    int64_t n_ops = 0, name_bytes = 0;

    /* The list peaks one clone above max(count, d_max). */
    if (benign > 0 && clones < limit && (count > d_max ? count : d_max) >= capacity)
        return -1;
    while (benign > 0 && clones < limit) {
        if (name_bytes)
            names[name_bytes++] = ' ';
        name_bytes += write_name(names + name_bytes, prefix, prefix_len,
                                 nodes.first_clone + (uint64_t)clones);
        key[count] = nodes.population + clones;
        count++;
        ops[n_ops++] = ~clones;
        clones++;
        while (count > d_max) {
            int64_t extreme = degree_of(&nodes, key[0]), ties = 0, chosen;
            for (int64_t i = 1; i < count; i++) {
                int64_t d = degree_of(&nodes, key[i]);
                if (highest ? d > extreme : d < extreme)
                    extreme = d;
            }
            for (int64_t i = 0; i < count; i++) {
                if (degree_of(&nodes, key[i]) == extreme)
                    tie[ties++] = i;
            }
            if (ties == 1) {
                chosen = tie[0];
            } else {
                int64_t pick = repro_mt_randbelow(state, (uint32_t)ties);
                /* Stable insertion sort of the tie by repr. */
                for (int64_t i = 1; i < ties; i++) {
                    int64_t row = tie[i], j = i;
                    while (j > 0 && before(&nodes, key[row], key[tie[j - 1]])) {
                        tie[j] = tie[j - 1];
                        j--;
                    }
                    tie[j] = row;
                }
                chosen = tie[pick];
            }
            ops[n_ops++] = key[chosen];
            if (key[chosen] < nodes.population) {
                degree[key[chosen]]--;
                benign--;
            }
            count--;
            memmove(key + chosen, key + chosen + 1, (size_t)(count - chosen) * sizeof *key);
        }
    }
    degree[io[SOAP_TARGET]] = count;
    io[SOAP_COUNTER] = (int64_t)(counter + (uint64_t)(clones - started));
    io[SOAP_PEERS] = count;
    io[SOAP_BENIGN] = benign;
    io[SOAP_CLONES] = clones;
    io[SOAP_NAME_BYTES] = name_bytes;
    return n_ops;
}
