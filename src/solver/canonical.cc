#include "solver/canonical.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

namespace licm::solver {

namespace {

// splitmix64-style mixer; used to combine signature components.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Combine(uint64_t h, uint64_t v) { return Mix(h ^ Mix(v)); }

// Bit pattern of a double with -0.0 normalized to +0.0 so equal values hash
// equally.
uint64_t DoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  return std::bit_cast<uint64_t>(d);
}

uint64_t HashBytes(const std::string& s) {
  // FNV-1a, then mixed; collisions only cost hash-bucket sharing — key
  // comparison is always on the full bytes.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendDouble(std::string* out, double d) { AppendU64(out, DoubleBits(d)); }

// Reusable buffers of one canonicalization. The incidence of variables
// on rows is laid out once in CSR form: variable v's incident signatures
// live in sig[begin[v], begin[v + 1]), and slot[k] is where the k-th
// nonzero (rows in order, terms in order) writes its signature. A
// refinement sweep then touches only these flat arrays.
struct Scratch {
  std::vector<uint32_t> begin;                   // n + 1 offsets into sig
  std::vector<uint32_t> slot;                    // nonzero -> sig index
  std::vector<uint64_t> sig;                     // incident signatures
  std::vector<uint64_t> row;                     // one row's term hashes
  std::vector<std::pair<uint64_t, VarId>> rank;  // Densify's sort buffer
};

void BuildIncidence(const LinearProgram& lp, Scratch* s) {
  const size_t n = lp.num_vars();
  s->begin.assign(n + 1, 0);
  size_t nnz = 0;
  for (const Row& row : lp.rows()) {
    for (const Term& t : row.terms) ++s->begin[t.var + 1];
    nnz += row.terms.size();
  }
  for (size_t v = 0; v < n; ++v) s->begin[v + 1] += s->begin[v];
  std::vector<uint32_t> cursor(s->begin.begin(), s->begin.end() - 1);
  s->slot.resize(nnz);
  size_t k = 0;
  for (const Row& row : lp.rows()) {
    for (const Term& t : row.terms) s->slot[k++] = cursor[t.var]++;
  }
  s->sig.resize(nnz);
}

// Dense re-ranking of arbitrary 64-bit colors, order defined by the color
// values themselves (so the result is independent of input variable order
// whenever the colors are). Returns the number of distinct colors.
size_t Densify(std::vector<uint64_t>* colors, Scratch* s) {
  const size_t n = colors->size();
  s->rank.resize(n);
  for (VarId v = 0; v < n; ++v) s->rank[v] = {(*colors)[v], v};
  std::sort(s->rank.begin(), s->rank.end());
  size_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && s->rank[i].first != s->rank[i - 1].first) ++distinct;
    (*colors)[s->rank[i].second] = distinct;
  }
  return n == 0 ? 0 : distinct + 1;
}

// One refinement sweep: row signatures from variable colors, then variable
// colors from incident row signatures. One pass over the nonzeros in each
// direction (plus a per-variable sort of its incident signatures), so a
// sweep is O(nnz log deg) even on long cardinality rows. Returns the
// number of distinct colors after the sweep.
size_t RefineOnce(const LinearProgram& lp, std::vector<uint64_t>* colors,
                  Scratch* s) {
  size_t k = 0;
  for (const Row& row : lp.rows()) {
    uint64_t h = Combine(static_cast<uint64_t>(row.op), DoubleBits(row.rhs));
    s->row.clear();
    for (const Term& t : row.terms) {
      s->row.push_back(Combine((*colors)[t.var], DoubleBits(t.coef)));
    }
    std::sort(s->row.begin(), s->row.end());
    for (uint64_t x : s->row) h = Combine(h, x);
    for (const Term& t : row.terms) {
      s->sig[s->slot[k++]] = Combine(h, DoubleBits(t.coef));
    }
  }
  for (VarId v = 0; v < colors->size(); ++v) {
    const auto first = s->sig.begin() + s->begin[v];
    const auto last = s->sig.begin() + s->begin[v + 1];
    std::sort(first, last);
    uint64_t h = (*colors)[v];
    for (auto it = first; it != last; ++it) h = Combine(h, *it);
    (*colors)[v] = h;
  }
  return Densify(colors, s);
}

// Serializes `lp` relabeled by form->canon_to_input into form->key and
// form->hash. Rows are sorted so the form is independent of row insertion
// order; they are written into one buffer and sorted as byte slices.
void Serialize(const LinearProgram& lp, CanonicalForm* form) {
  const size_t n = lp.num_vars();
  std::vector<VarId> input_to_canon(n);
  for (size_t pos = 0; pos < n; ++pos) {
    input_to_canon[form->canon_to_input[pos]] = static_cast<VarId>(pos);
  }

  size_t nnz = 0;
  for (const Row& row : lp.rows()) nnz += row.terms.size();
  std::string rows;
  rows.reserve(lp.num_rows() * 17 + nnz * 16);
  std::vector<std::pair<size_t, size_t>> slices;  // (offset, length)
  slices.reserve(lp.num_rows());
  std::vector<std::pair<VarId, double>> terms;
  for (const Row& row : lp.rows()) {
    terms.clear();
    for (const Term& t : row.terms) {
      terms.emplace_back(input_to_canon[t.var], t.coef);
    }
    std::sort(terms.begin(), terms.end());
    const size_t offset = rows.size();
    rows.push_back(static_cast<char>(row.op));
    AppendDouble(&rows, row.rhs);
    AppendU64(&rows, terms.size());
    for (const auto& [var, coef] : terms) {
      AppendU64(&rows, var);
      AppendDouble(&rows, coef);
    }
    slices.emplace_back(offset, rows.size() - offset);
  }
  const std::string_view all(rows);
  std::sort(slices.begin(), slices.end(),
            [all](const auto& a, const auto& b) {
              return all.substr(a.first, a.second) <
                     all.substr(b.first, b.second);
            });

  std::string& key = form->key;
  key.clear();
  key.reserve(24 + n * 25 + rows.size());
  AppendU64(&key, n);
  AppendU64(&key, lp.num_rows());
  AppendDouble(&key, lp.objective_constant());
  for (size_t pos = 0; pos < n; ++pos) {
    const VarId v = form->canon_to_input[pos];
    const auto& def = lp.vars()[v];
    AppendDouble(&key, def.lower);
    AppendDouble(&key, def.upper);
    key.push_back(def.is_integer ? 1 : 0);
    AppendDouble(&key, lp.objective_coef(v));
  }
  for (const auto& [offset, length] : slices) key.append(rows, offset, length);
  form->hash = HashBytes(key);
}

}  // namespace

CanonicalForm Canonicalize(const LinearProgram& lp) {
  const size_t n = lp.num_vars();
  CanonicalForm form;
  Scratch scratch;

  // Initial colors: everything that distinguishes a variable on its own.
  std::vector<uint64_t> colors(n);
  for (VarId v = 0; v < n; ++v) {
    const auto& def = lp.vars()[v];
    uint64_t h = DoubleBits(def.lower);
    h = Combine(h, DoubleBits(def.upper));
    h = Combine(h, def.is_integer ? 1 : 0);
    h = Combine(h, DoubleBits(lp.objective_coef(v)));
    colors[v] = h;
  }
  size_t distinct = Densify(&colors, &scratch);

  // Refine to a fixpoint: stop once a sweep splits no color class, or
  // every variable has its own color.
  BuildIncidence(lp, &scratch);
  for (size_t round = 0; round < n; ++round) {
    const size_t d = RefineOnce(lp, &colors, &scratch);
    if (d == distinct || d == n) break;
    distinct = d;
  }

  // Canonical position = final color rank, ties broken by input id (a
  // stable counting sort over the dense ranks). Tied variables are
  // automorphic on the structures LICM emits, and the byte serialization
  // is invariant under automorphic relabelings, so the tie-break never
  // costs a hit there. (Full individualization-refinement would cost
  // O(orbits) extra fixpoint passes — more than solving the typical
  // component — for hit-rate gains only on 1-WL-hard structure that LICM
  // never produces.)
  std::vector<uint32_t> start(n + 1, 0);
  for (VarId v = 0; v < n; ++v) ++start[colors[v] + 1];
  for (size_t c = 0; c < n; ++c) start[c + 1] += start[c];
  form.canon_to_input.resize(n);
  for (VarId v = 0; v < n; ++v) form.canon_to_input[start[colors[v]]++] = v;

  Serialize(lp, &form);
  return form;
}

CanonicalForm CanonicalizeTwin(const LinearProgram& twin,
                               const CanonicalForm& form) {
  CanonicalForm out;
  out.canon_to_input = form.canon_to_input;
  Serialize(twin, &out);
  return out;
}

uint64_t IsomorphismInvariant(const LinearProgram& lp) {
  const size_t n = lp.num_vars();
  std::vector<uint32_t> degree(n, 0);
  std::vector<uint64_t> rows;
  rows.reserve(lp.num_rows());
  std::vector<uint64_t> coefs;
  for (const Row& row : lp.rows()) {
    coefs.clear();
    for (const Term& t : row.terms) {
      ++degree[t.var];
      coefs.push_back(DoubleBits(t.coef));
    }
    std::sort(coefs.begin(), coefs.end());
    uint64_t h = Combine(static_cast<uint64_t>(row.op), DoubleBits(row.rhs));
    h = Combine(h, coefs.size());
    for (uint64_t c : coefs) h = Combine(h, c);
    rows.push_back(h);
  }
  std::vector<uint64_t> vars(n);
  for (VarId v = 0; v < n; ++v) {
    const auto& def = lp.vars()[v];
    uint64_t h = DoubleBits(def.lower);
    h = Combine(h, DoubleBits(def.upper));
    h = Combine(h, def.is_integer ? 1 : 0);
    h = Combine(h, DoubleBits(lp.objective_coef(v)));
    vars[v] = Combine(h, degree[v]);
  }
  std::sort(vars.begin(), vars.end());
  std::sort(rows.begin(), rows.end());
  uint64_t h = Combine(n, lp.num_rows());
  h = Combine(h, DoubleBits(lp.objective_constant()));
  for (uint64_t x : vars) h = Combine(h, x);
  for (uint64_t x : rows) h = Combine(h, x);
  return h;
}

std::vector<double> CanonicalToInput(const CanonicalForm& form,
                                     const std::vector<double>& canonical_x) {
  std::vector<double> x(canonical_x.size());
  for (size_t pos = 0; pos < canonical_x.size(); ++pos) {
    x[form.canon_to_input[pos]] = canonical_x[pos];
  }
  return x;
}

std::vector<double> InputToCanonical(const CanonicalForm& form,
                                     const std::vector<double>& input_x) {
  std::vector<double> x(input_x.size());
  for (size_t pos = 0; pos < input_x.size(); ++pos) {
    x[pos] = input_x[form.canon_to_input[pos]];
  }
  return x;
}

}  // namespace licm::solver
