(** Source-invariant lint over the repo's OCaml sources.

    Complementing the trace-driven checkers, this enforces conventions
    that keep figure output deterministic and the tracer cheap:

    - {b no-print / no-wallclock / no-global-mutable} (figure data
      phases): in [fig_*.ml], top-level bindings that are not
      presentation helpers (name ending in [_present]) compute figure
      data and must stay pure — no [Printf.printf]-style console
      output, no [Unix.gettimeofday] / [Sys.time] / [Random.self_init]
      (wall-clock or ambient nondeterminism), and the file must not
      define top-level mutable state ([let x = ref ...]).

    - {b lock-pairing} (lib/ and bin/): a file with more textual
      [Lock.acquire] than [Lock.release] call sites almost certainly
      leaks a lock on some path; prefer [Lock.with_lock].  Extra
      releases are fine (early-exit branches share one acquire).

    - {b trace-guard}: every [Trace.emit] call site must test
      [Trace.enabled] within the few preceding lines, so tracing stays
      zero-cost when disabled.  [trace.ml] itself is exempt.

    - {b trace-alloc}: every [Trace.<Ctor> { ... }] event record built
      outside [trace.ml] and the tests must sit under a [Trace.enabled]
      (or [*tracing]) test in the same window, because building the
      record allocates even when the tracer is off.  Match arms
      ([| Trace.Ctor { ... }]) are patterns and are not flagged.

    The scanner understands OCaml lexical structure well enough not to
    be fooled: nested [(* *)] comments, string literals (including
    strings inside comments) and char literals are blanked before rules
    run.  A line containing [lint:allow] (inside a comment) is skipped
    by all line-based rules. *)

type finding = {
  file : string;
  line : int;  (** 1-based; 0 for whole-file findings *)
  rule : string;
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

val scrub : string -> string
(** Blank out comments, string literals and char literals, preserving
    line structure (every other character, including newlines, is kept
    in place).  Exposed for tests. *)

val check_source : file:string -> string -> finding list
(** Lint one file's contents.  [file] is the (relative) path used both
    for reporting and for deciding which rules apply.  Includes the
    {{!state_matrix}state-access matrix} violations (rule
    [state-matrix], proto files) and the Msg-mutator generation rule
    (rule [msg-bump-gen], files handling raw node bytes): a top-level
    binding that mutates [Bytes.t] in a file mentioning [Mpool.data] or
    [Msg.head_view] must also call [bump_gen]. *)

(** {2 State-access matrix}

    Inferred per top-level binding in [lib/proto]: which shared-state
    classes ([snd]/[rcv]/[sb]/[reass], from the [access sess
    ~write:b "class"] annotations) the binding reads and writes, and
    which lock-context tokens ([Lock.acquire], [*_acquire], [with_*]
    helpers) appear in it.  A binding writing shared state with no lock
    token and no [lint:allow] is a [state-matrix] violation. *)

type matrix_row = {
  m_file : string;
  m_binding : string;
  m_line : int;           (** first line of the binding, 1-based *)
  m_reads : string list;  (** state classes read *)
  m_writes : string list; (** state classes written *)
  m_locks : string list;  (** lock-context tokens seen in the binding *)
  m_allowed : bool;       (** a [lint:allow] marker covers the binding *)
}

val state_matrix_source : file:string -> string -> matrix_row list
(** Rows for one file's contents (empty outside [lib/proto]). *)

val state_matrix : roots:string list -> matrix_row list
(** Rows for every [.ml] file under the roots, sorted by file. *)

val matrix_violations : matrix_row list -> finding list

val matrix_to_string : matrix_row list -> string
(** The matrix as an aligned text table. *)

val matrix_json : matrix_row list -> string
(** The matrix as a one-object JSON document. *)

val check_file : string -> finding list
(** [check_file path] reads and lints [path]. *)

val check_tree : roots:string list -> finding list
(** Recursively lint every [.ml] file under the given root
    directories, skipping [_build] and dot-directories.  Findings are
    sorted by (file, line). *)
