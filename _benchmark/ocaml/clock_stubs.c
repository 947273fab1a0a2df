/* Monotonic clock with nanosecond resolution: per-shot latencies are tens
   of microseconds, below what gettimeofday resolves well. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double bench_monotonic_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_monotonic(value unit)
{
  return caml_copy_double(bench_monotonic_unboxed(unit));
}
