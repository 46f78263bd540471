/* Binds the calling thread (an OCaml domain) to one CPU. CPUs are
   numbered within the process's affinity mask as it was at the first
   call, so 0 and 1 are the first two CPUs the process may run on.
   Returns false when there is no such CPU or the kernel refuses. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

static cpu_set_t initial;
static int have_initial = 0;

value wfq_benchmark_pin(value v_index)
{
  int index = Int_val(v_index);
  if (!have_initial) {
    if (sched_getaffinity(0, sizeof initial, &initial) != 0) return Val_false;
    have_initial = 1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &initial)) continue;
    if (index-- > 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
  }
  return Val_false;
}
