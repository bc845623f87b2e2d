/* Run one job as a child process and report what the kernel measured
   for it when it is reaped: wall time, user+sys CPU, and max RSS.

   The child is made with fork from this small process rather than from
   the Python harness: at exec, Linux folds the old address space's
   high-water RSS into the new program's ru_maxrss, so a child spawned
   from a large process would read at least that process's size. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/fail.h>

static double now_s(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* pbench_spawn argv cwd stdout timeout_s
   = (wall_s, cpu_s, maxrss_kb, status), where status is the exit code,
   or minus the signal number that ended the child.  The child's stderr
   goes to /dev/null.  An alarm set before exec survives it, so a child
   still running after [timeout_s] is ended by SIGALRM. */
value pbench_spawn(value v_argv, value v_cwd, value v_stdout, value v_timeout)
{
  CAMLparam4(v_argv, v_cwd, v_stdout, v_timeout);
  CAMLlocal1(res);
  mlsize_t argc = Wosize_val(v_argv);
  char **argv = calloc(argc + 1, sizeof(char *));
  if (argv == NULL) caml_failwith("pbench_spawn: out of memory");
  for (mlsize_t i = 0; i < argc; i++) argv[i] = caml_stat_strdup(String_val(Field(v_argv, i)));
  char *cwd = caml_stat_strdup(String_val(v_cwd));
  char *out = caml_stat_strdup(String_val(v_stdout));
  unsigned timeout = (unsigned)Int_val(v_timeout);

  struct rusage ru;
  int status = 0;
  pid_t pid;
  caml_enter_blocking_section();
  double t0 = now_s();
  pid = fork();
  if (pid == 0) {
    int fd;
    if (chdir(cwd) != 0) _exit(126);
    fd = open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 1) < 0) _exit(126);
    fd = open("/dev/null", O_WRONLY);
    if (fd < 0 || dup2(fd, 2) < 0) _exit(126);
    alarm(timeout);
    execv(argv[0], argv);
    _exit(127);
  }
  pid_t r = -1;
  if (pid > 0) {
    do r = wait4(pid, &status, 0, &ru);
    while (r < 0 && errno == EINTR);
  }
  double wall = now_s() - t0;
  caml_leave_blocking_section();

  for (mlsize_t i = 0; i < argc; i++) caml_stat_free(argv[i]);
  free(argv);
  caml_stat_free(cwd);
  caml_stat_free(out);
  if (pid < 0 || r < 0) caml_failwith("pbench_spawn: fork or wait4 failed");

  double cpu = (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6
               + (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6;
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : WIFSIGNALED(status) ? -WTERMSIG(status) : -1;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, caml_copy_double(wall));
  Store_field(res, 1, caml_copy_double(cpu));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, Val_int(code));
  CAMLreturn(res);
}
