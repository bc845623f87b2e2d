/* Retained-words census walk: one depth-first traversal from ordered
   groups of roots, with one visited set shared by every group, so each
   reachable block is charged once, to the first group that reaches it.

   The accounting is that of the runtime's caml_obj_reachable_words: a
   block weighs its header plus its fields, an infix pointer stands for
   its enclosing closure, a closure is scanned from its environment, a
   block with tag >= No_scan_tag is counted but not scanned, and a block
   outside the heap (which Is_in_heap_or_young reports on OCaml 4; on
   OCaml 5 every block qualifies) weighs nothing and is not scanned.

   The walk allocates nothing on the OCaml heap: its visited set and
   stack are malloc'd, and the results go into an int array the caller
   preallocated.  No collection can run while it walks, so no block
   moves under the addresses the visited set holds. */

#define CAML_INTERNALS
#include <stdlib.h>

#include <caml/mlvalues.h>
#include <caml/address_class.h>
#include <caml/fail.h>

/* Open-addressing set of block addresses; 0 marks a free slot. */
struct visited {
  uintnat *slots;
  uintnat mask;
  uintnat count;
};

/* Fields still to walk: [left] fields starting at [next]. */
struct frame {
  value *next;
  mlsize_t left;
};

struct walk {
  struct visited seen;
  struct frame *stack;
  size_t depth;
  size_t cap;
};

static void walk_free(struct walk *w)
{
  free(w->seen.slots);
  free(w->stack);
}

static void walk_oom(struct walk *w)
{
  walk_free(w);
  caml_raise_out_of_memory();
}

static uintnat slot_of(uintnat addr, uintnat mask)
{
  uintnat h = (addr >> 3) * (uintnat)0x9E3779B97F4A7C15ULL;
  return (h ^ (h >> (4 * sizeof(uintnat)))) & mask;
}

/* Insert [addr]; true when it was not already present. */
static int visit(struct walk *w, uintnat addr)
{
  struct visited *s = &w->seen;
  uintnat i = slot_of(addr, s->mask);
  while (s->slots[i] != 0) {
    if (s->slots[i] == addr) return 0;
    i = (i + 1) & s->mask;
  }
  s->slots[i] = addr;
  if (++s->count * 2 > s->mask) {
    uintnat old_mask = s->mask, *old = s->slots, j;
    uintnat mask = 2 * old_mask + 1;
    uintnat *slots = calloc(mask + 1, sizeof(uintnat));
    if (slots == NULL) walk_oom(w);
    for (j = 0; j <= old_mask; j++) {
      if (old[j] != 0) {
        uintnat k = slot_of(old[j], mask);
        while (slots[k] != 0) k = (k + 1) & mask;
        slots[k] = old[j];
      }
    }
    free(old);
    s->slots = slots;
    s->mask = mask;
  }
  return 1;
}

static void push(struct walk *w, value *next, mlsize_t left)
{
  if (w->depth == w->cap) {
    size_t cap = 2 * w->cap;
    struct frame *stack = realloc(w->stack, cap * sizeof(struct frame));
    if (stack == NULL) walk_oom(w);
    w->stack = stack;
    w->cap = cap;
  }
  w->stack[w->depth].next = next;
  w->stack[w->depth].left = left;
  w->depth++;
}

/* Words of the blocks reachable from [v] that no earlier walk reached. */
static intnat walk_root(struct walk *w, value v)
{
  intnat words = 0;
  while (1) {
    if (Is_block(v) && Is_in_heap_or_young(v)) {
      header_t hd = Hd_val(v);
      tag_t tag = Tag_hd(hd);
      if (tag == Infix_tag) {
        v -= Infix_offset_hd(hd);
        continue;
      }
      if (visit(w, (uintnat)v)) {
        mlsize_t sz = Wosize_hd(hd);
        words += 1 + sz;
        if (tag < No_scan_tag) {
          mlsize_t i =
            tag == Closure_tag ? Start_env_closinfo(Closinfo_val(v)) : 0;
          if (i < sz) {
            if (i + 1 < sz) push(w, Op_val(v) + i + 1, sz - i - 1);
            v = Field(v, i);
            continue;
          }
        }
      }
    }
    if (w->depth == 0) return words;
    struct frame *f = &w->stack[w->depth - 1];
    v = *f->next++;
    if (--f->left == 0) w->depth--;
  }
}

/* pta_census_retained groups out: [groups] is an array of root lists;
   out.(g) receives the words first reached from groups.(g), walking the
   groups in order.  [out] has one slot per group. */
value pta_census_retained(value v_groups, value v_out)
{
  struct walk w;
  mlsize_t g, n = Wosize_val(v_groups);
  w.seen.mask = (1 << 16) - 1;
  w.seen.count = 0;
  w.seen.slots = calloc(w.seen.mask + 1, sizeof(uintnat));
  w.depth = 0;
  w.cap = 256;
  w.stack = malloc(w.cap * sizeof(struct frame));
  if (w.seen.slots == NULL || w.stack == NULL) walk_oom(&w);
  for (g = 0; g < n; g++) {
    intnat words = 0;
    value l;
    for (l = Field(v_groups, g); Is_block(l); l = Field(l, 1))
      words += walk_root(&w, Field(l, 0));
    Field(v_out, g) = Val_long(words);
  }
  walk_free(&w);
  return Val_unit;
}
