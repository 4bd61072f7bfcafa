/* CPU clocks for the benchmark: CPU time excludes the time a shared
   host steals from this machine's virtual CPUs, which wall time does
   not. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static value cpu_seconds(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value perfbench_thread_cpu_s(value unit)
{
  (void)unit;
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_process_cpu_s(value unit)
{
  (void)unit;
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
