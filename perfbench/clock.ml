(* CPU time of the calling thread (one OCaml domain) and of the whole
   process, in seconds. *)

external thread_cpu_s : unit -> float = "perfbench_thread_cpu_s"
external process_cpu_s : unit -> float = "perfbench_process_cpu_s"
