/* Atomic access to an int field of an OCaml block.

   OCaml 5.1 and 5.2 give atomics only to field 0 of a block
   ([Atomic.t]); the runtime's [caml_atomic_cas_field] is C-only. These
   three stubs give the same load, store and CAS to any field [i] that
   only ever holds an immediate. An immediate is never a pointer the GC
   must see, so no write barrier is needed, and none of them allocates
   or raises: the externals are [@@noalloc].

   The orderings are those of [Stdlib.Atomic]: an acquire load, a
   sequentially consistent store and a sequentially consistent CAS.
   OCaml 5.4's atomic record fields ([@atomic]) give the same
   operations without C. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

value wfq_atomic_field_get(value obj, value i)
{
  return atomic_load_explicit(&Op_atomic_val(obj)[Long_val(i)],
                              memory_order_acquire);
}

value wfq_atomic_field_set(value obj, value i, value v)
{
  atomic_store_explicit(&Op_atomic_val(obj)[Long_val(i)], v,
                        memory_order_seq_cst);
  return Val_unit;
}

value wfq_atomic_field_cas(value obj, value i, value expected, value desired)
{
  return Val_bool(atomic_compare_exchange_strong(
      &Op_atomic_val(obj)[Long_val(i)], &expected, desired));
}
