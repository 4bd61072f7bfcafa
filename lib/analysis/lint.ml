type finding = { file : string; line : int; rule : string; message : string }

let pp_finding fmt f =
  if f.line > 0 then
    Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message
  else Format.fprintf fmt "%s: [%s] %s" f.file f.rule f.message

(* ------------------------------------------------------------------ *)
(* Lexical scrubbing: blank comments, strings and char literals so the
   line-based rules below only ever see real code.  All the scanning
   functions are tail-recursive over the character index. *)

let scrub src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  let is_lower c = (c >= 'a' && c <= 'z') || c = '_' in
  let rec code i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
        blank i;
        blank (i + 1);
        comment 1 (i + 2)
      | '"' ->
        blank i;
        string_lit (i + 1)
      | '{' ->
        (* {| ... |} and {id| ... |id} quoted strings *)
        let j = ref (i + 1) in
        while !j < n && is_lower src.[!j] do
          incr j
        done;
        if !j < n && src.[!j] = '|' then begin
          let id = String.sub src (i + 1) (!j - i - 1) in
          for k = i to !j do
            blank k
          done;
          quoted id (!j + 1)
        end
        else code (i + 1)
      | '\'' when i = 0 || not (is_ident src.[i - 1]) ->
        (* Char literal, or a type variable such as 'a.  A literal is a
           single non-backslash char or a backslash escape of at most
           five characters, closed by a quote. *)
        if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 1] <> '\''
           && src.[i + 2] = '\''
        then begin
          blank i;
          blank (i + 1);
          blank (i + 2);
          code (i + 3)
        end
        else if i + 1 < n && src.[i + 1] = '\\' then begin
          let close = ref 0 in
          (let j = ref (i + 2) in
           while !close = 0 && !j < n && !j <= i + 6 do
             if src.[!j] = '\'' then close := !j;
             incr j
           done);
          if !close > 0 then begin
            for k = i to !close do
              blank k
            done;
            code (!close + 1)
          end
          else code (i + 1)
        end
        else code (i + 1)
      | _ -> code (i + 1)
  and string_lit i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      string_lit (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      code (i + 1)
    end
    else begin
      blank i;
      string_lit (i + 1)
    end
  and quoted id i =
    if i >= n then ()
    else
      let idn = String.length id in
      if
        src.[i] = '|'
        && i + idn + 1 < n
        && String.sub src (i + 1) idn = id
        && src.[i + idn + 1] = '}'
      then begin
        for k = i to i + idn + 1 do
          blank k
        done;
        code (i + idn + 2)
      end
      else begin
        blank i;
        quoted id (i + 1)
      end
  and comment depth i =
    if i >= n then ()
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2)
    end
    else if src.[i] = '*' && i + 1 < n && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
    end
    else if src.[i] = '"' then begin
      (* Strings are lexed inside comments: a close-comment sequence
         inside such a string does not close the comment. *)
      blank i;
      comment_string depth (i + 1)
    end
    else begin
      blank i;
      comment depth (i + 1)
    end
  and comment_string depth i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      comment_string depth (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      comment depth (i + 1)
    end
    else begin
      blank i;
      comment_string depth (i + 1)
    end
  in
  code 0;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* Token matching with identifier boundaries, so e.g. "sprintf" never
   matches a search for "printf". *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let count_token line tok =
  let nl = String.length line and nt = String.length tok in
  let hits = ref 0 in
  let i = ref 0 in
  while !i + nt <= nl do
    if
      String.sub line !i nt = tok
      && (!i = 0 || not (is_ident_char line.[!i - 1]))
      && (!i + nt = nl || not (is_ident_char line.[!i + nt]))
    then begin
      incr hits;
      i := !i + nt
    end
    else incr i
  done;
  !hits

let has_token line tok = count_token line tok > 0

(* ------------------------------------------------------------------ *)
(* Rules *)

let print_tokens =
  [
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf";
    "Format.eprintf"; "Format.fprintf"; "Format.print_string"; "print_string";
    "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

let wallclock_tokens =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Random.self_init" ]

let allow_marker = "lint:allow"

let path_parts file = String.split_on_char '/' file

let is_fig_file file =
  let base = Filename.basename file in
  String.length base > 4
  && String.sub base 0 4 = "fig_"
  && Filename.check_suffix base ".ml"

let in_tests file = List.mem "test" (path_parts file)

(* Name of the top-level binding a fig line belongs to: lines starting
   with "let " in column 0 open a new one. *)
let toplevel_binding line current =
  if String.length line > 4 && String.sub line 0 4 = "let " then begin
    let rest = String.sub line 4 (String.length line - 4) in
    let rest =
      if String.length rest > 4 && String.sub rest 0 4 = "rec " then
        String.sub rest 4 (String.length rest - 4)
      else rest
    in
    let j = ref 0 in
    while
      !j < String.length rest
      && (let c = rest.[!j] in
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '_' || c = '\'')
    do
      incr j
    done;
    if !j > 0 then String.sub rest 0 !j else current
  end
  else current

let ends_with s suffix =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let starts_with s prefix =
  let ls = String.length s and lx = String.length prefix in
  ls >= lx && String.sub s 0 lx = prefix

let contains_sub s sub =
  let ls = String.length s and lx = String.length sub in
  let rec scan j = j + lx <= ls && (String.sub s j lx = sub || scan (j + 1)) in
  scan 0

(* All maximal identifier runs on a (scrubbed) line, dotted paths
   included — the raw material for the token-set rules below. *)
let line_tokens line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident_char line.[!i] then begin
      let s = !i in
      while !i < n && is_ident_char line.[!i] do
        incr i
      done;
      toks := String.sub line s (!i - s) :: !toks
    end
    else incr i
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* State-access matrix (lib/proto)

   Each `access sess ~write:<b> "<class>"` annotation names a shared
   protocol state class (snd/rcv/sb/reass); the matrix records, per
   top-level binding, which classes it reads and writes and which
   lock-context tokens appear in the same binding.  A binding that
   writes shared state with no lock token and no [lint:allow] fails the
   lint: either it is a real hole or the protection is held by a caller,
   and the latter must be said out loud in an allow comment. *)

type matrix_row = {
  m_file : string;
  m_binding : string;
  m_line : int; (* first line of the binding, 1-based *)
  m_reads : string list;
  m_writes : string list;
  m_locks : string list;
  m_allowed : bool;
}

(* A token that brings a lock context into scope: direct acquires
   ([Lock.acquire], [Counting.acquire], the drivers' [*_acquire]
   helpers), scoped holds ([Lock.with_lock], [with_*] helpers such as
   [with_rexmt_lock]/[with_send_state]).  The [with_] prefix is a
   naming convention this rule enforces backwards: lock-context helpers
   must be named so the lexical pass can see them.

   Deferred-charge sections count too: [Sim.defer_begin] (and the SCR
   wrappers [scr_section_begin]/[scr_apply_entry] built on it) opens a
   host-atomic section in which writes are replica-local — no other
   thread can observe the state mid-section, which is exactly the
   guarantee a lock provides to this rule. *)
let is_lock_token tok =
  ends_with tok ".acquire" || ends_with tok "_acquire" || tok = "with_lock"
  || ends_with tok ".with_lock"
  || starts_with tok "with_"
  || ends_with tok "defer_begin"
  || ends_with tok "_section_begin"

(* The annotation's write flag and state-class literal.  The flag
   survives scrubbing ([~write:true] is code); the class string does
   not, so it is pulled from the raw line. *)
let access_on_line ~raw ~scrubbed =
  if not (has_token scrubbed "access") then None
  else
    let write =
      if contains_sub scrubbed "~write:true" then Some true
      else if contains_sub scrubbed "~write:false" then Some false
      else None
    in
    match write with
    | None -> None
    | Some w -> (
      let n = String.length raw in
      let rec quote i = if i >= n then None else if raw.[i] = '"' then Some i else quote (i + 1) in
      match quote 0 with
      | None -> None
      | Some s -> (
        match quote (s + 1) with
        | None -> None
        | Some e -> Some (w, String.sub raw (s + 1) (e - s - 1))))

let has_allow_marker raw = contains_sub raw allow_marker

let state_matrix_source ~file src =
  if not (List.mem "proto" (path_parts file)) || in_tests file then []
  else begin
    let scrubbed = scrub src in
    let raw_lines = Array.of_list (String.split_on_char '\n' src) in
    let lines = Array.of_list (String.split_on_char '\n' scrubbed) in
    let rows = ref [] in
    let binding = ref "" and bstart = ref 0 in
    let reads = ref [] and writes = ref [] in
    let locks = ref [] and allowed = ref false in
    let flush () =
      if !binding <> "" && (!reads <> [] || !writes <> []) then
        rows :=
          {
            m_file = file;
            m_binding = !binding;
            m_line = !bstart;
            m_reads = List.sort_uniq compare !reads;
            m_writes = List.sort_uniq compare !writes;
            m_locks = List.sort_uniq compare !locks;
            m_allowed = !allowed;
          }
          :: !rows
    in
    Array.iteri
      (fun i line ->
        if String.length line > 4 && String.sub line 0 4 = "let " then begin
          flush ();
          binding := toplevel_binding line "";
          bstart := i + 1;
          reads := [];
          writes := [];
          locks := [];
          allowed := false
        end;
        if !binding <> "" then begin
          if has_allow_marker raw_lines.(i) then allowed := true;
          List.iter
            (fun tok -> if is_lock_token tok then locks := tok :: !locks)
            (line_tokens line);
          match access_on_line ~raw:raw_lines.(i) ~scrubbed:line with
          | Some (true, cls) -> writes := cls :: !writes
          | Some (false, cls) -> reads := cls :: !reads
          | None -> ()
        end)
      lines;
    flush ();
    List.rev !rows
  end

let matrix_violations rows =
  List.filter_map
    (fun r ->
      if r.m_writes <> [] && r.m_locks = [] && not r.m_allowed then
        Some
          {
            file = r.m_file;
            line = r.m_line;
            rule = "state-matrix";
            message =
              Printf.sprintf
                "%S writes shared state class(es) %s with no lock token in \
                 the binding and no %s; hold a lock, use a with_* helper, or \
                 document the caller's protection in an allow comment"
                r.m_binding
                (String.concat ", " r.m_writes)
                allow_marker;
          }
      else None)
    rows

let state_matrix ~roots =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then begin
            if entry <> "_build" && entry.[0] <> '.' then walk path
          end
          else if Filename.check_suffix entry ".ml" then files := path :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter (fun r -> if Sys.file_exists r && Sys.is_directory r then walk r) roots;
  List.concat_map
    (fun path ->
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      state_matrix_source ~file:path src)
    (List.sort compare (List.rev !files))

let matrix_to_string rows =
  let b = Buffer.create 1024 in
  let cls_str = function [] -> "-" | l -> String.concat "," l in
  let w0 = ref 24 and w1 = ref 12 and w2 = ref 12 in
  List.iter
    (fun r ->
      w0 := max !w0 (String.length r.m_binding);
      w1 := max !w1 (String.length (cls_str r.m_reads));
      w2 := max !w2 (String.length (cls_str r.m_writes)))
    rows;
  Buffer.add_string b
    (Printf.sprintf "%-*s  %-*s  %-*s  %s\n" !w0 "binding" !w1 "reads" !w2 "writes"
       "locks");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-*s  %-*s  %-*s  %s%s\n" !w0 r.m_binding !w1
           (cls_str r.m_reads) !w2 (cls_str r.m_writes)
           (cls_str r.m_locks)
           (if r.m_allowed && r.m_locks = [] && r.m_writes <> [] then
              "  (caller-locked: " ^ allow_marker ^ ")"
            else "")))
    rows;
  Buffer.contents b

let matrix_json rows =
  let b = Buffer.create 1024 in
  let strs l = "[" ^ String.concat "," (List.map (Printf.sprintf "%S") l) ^ "]" in
  Buffer.add_string b "{\"state_access_matrix\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":%S,\"line\":%d,\"binding\":%S,\"reads\":%s,\"writes\":%s,\"locks\":%s,\"allowed\":%b}"
           r.m_file r.m_line r.m_binding (strs r.m_reads) (strs r.m_writes)
           (strs r.m_locks) r.m_allowed))
    rows;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Msg-mutator generation rule

   The checksum-sum memo is keyed by the node's write generation
   ([Mpool.bump_gen]); a byte mutation that forgets the bump serves a
   stale checksum silently.  Scope: non-test files that handle raw node
   bytes (they mention [Mpool.data] or [Msg.head_view]); in those, any
   top-level binding that mutates a [Bytes.t] must also call [bump_gen]
   (or carry [lint:allow] explaining why the buffer is not node
   memory). *)

let is_bytes_mutation tok =
  starts_with tok "Bytes.set"
  || starts_with tok "Bytes.blit"
  || tok = "Bytes.fill"
  || starts_with tok "Bytes.unsafe_set"
  || starts_with tok "Bytes.unsafe_blit"
  || starts_with tok "Bytes.unsafe_fill"

let bump_gen_findings ~file src =
  let scrubbed = scrub src in
  let raw_lines = Array.of_list (String.split_on_char '\n' src) in
  let lines = Array.of_list (String.split_on_char '\n' scrubbed) in
  let handles_node_bytes =
    Array.exists
      (fun l -> has_token l "Mpool.data" || has_token l "Msg.head_view")
      lines
  in
  if in_tests file || not handles_node_bytes then []
  else begin
    let findings = ref [] in
    let binding = ref "" in
    let first_mut = ref 0 and bumped = ref false and allowed = ref false in
    let flush () =
      if !binding <> "" && !first_mut > 0 && (not !bumped) && not !allowed then
        findings :=
          {
            file;
            line = !first_mut;
            rule = "msg-bump-gen";
            message =
              Printf.sprintf
                "%S mutates buffer bytes without calling bump_gen; a missed \
                 write-generation bump serves a stale cached checksum (add \
                 Mpool.bump_gen, or %s if the buffer is not node memory)"
                !binding allow_marker;
          }
          :: !findings
    in
    Array.iteri
      (fun i line ->
        if String.length line > 4 && String.sub line 0 4 = "let " then begin
          flush ();
          binding := toplevel_binding line !binding;
          first_mut := 0;
          bumped := false;
          allowed := false
        end;
        if has_allow_marker raw_lines.(i) then allowed := true;
        if List.exists (fun tok -> ends_with tok "bump_gen") (line_tokens line) then
          bumped := true;
        if !first_mut = 0 && List.exists is_bytes_mutation (line_tokens line) then
          first_mut := i + 1)
      lines;
    flush ();
    List.rev !findings
  end

(* Trace-record allocation rule

   Building a [Trace.<Ctor> { ... }] event record allocates whether or
   not the tracer is on, so every such construction outside trace.ml and
   the tests must sit under a [Trace.enabled] (or [*tracing]) test in
   the same window of preceding lines as [trace-guard].  A match arm
   ([| Trace.Ctor { ... } ->]) is a pattern, not a construction. *)

(* Whether scrubbed line [i] applies a [Trace.<Ctor>] to a record (the
   brace may open the next line) outside a match-arm pattern. *)
let builds_trace_record lines i =
  let line = lines.(i) in
  let n = String.length line in
  let rec first_nonblank s k =
    if k >= String.length s then None
    else if s.[k] = ' ' || s.[k] = '\t' then first_nonblank s (k + 1)
    else Some s.[k]
  in
  let rec last_nonblank k =
    if k < 0 then None
    else if line.[k] = ' ' || line.[k] = '\t' then last_nonblank (k - 1)
    else Some line.[k]
  in
  let rec scan j =
    if j + 7 > n then false
    else if
      String.sub line j 6 = "Trace."
      && line.[j + 6] >= 'A'
      && line.[j + 6] <= 'Z'
      && (j = 0 || not (is_ident_char line.[j - 1]))
    then begin
      let e = ref (j + 6) in
      while !e < n && is_ident_char line.[!e] do
        incr e
      done;
      let next =
        match first_nonblank line !e with
        | None when i + 1 < Array.length lines -> first_nonblank lines.(i + 1) 0
        | c -> c
      in
      (next = Some '{' && last_nonblank (j - 1) <> Some '|') || scan !e
    end
    else scan (j + 1)
  in
  scan 0

let is_trace_guard_token tok = tok = "Trace.enabled" || ends_with tok "tracing"

let check_source ~file src =
  let scrubbed = scrub src in
  let raw_lines = Array.of_list (String.split_on_char '\n' src) in
  let lines = Array.of_list (String.split_on_char '\n' scrubbed) in
  let findings = ref [] in
  let report line rule message = findings := { file; line; rule; message } :: !findings in
  let allowed i =
    (* The marker lives in a comment, so look at the raw line. *)
    let raw = raw_lines.(i) in
    let nl = String.length raw and nm = String.length allow_marker in
    let rec scan j =
      j + nm <= nl && (String.sub raw j nm = allow_marker || scan (j + 1))
    in
    scan 0
  in
  let fig = is_fig_file file in
  let binding = ref "" in
  let acquires = ref 0 and releases = ref 0 in
  Array.iteri
    (fun i line ->
      if not (allowed i) then begin
        let lineno = i + 1 in
        binding := toplevel_binding line !binding;
        (* Figure data phases must stay pure and deterministic. *)
        if fig && not (ends_with !binding "_present") then begin
          List.iter
            (fun tok ->
              if has_token line tok then
                report lineno "no-print"
                  (Printf.sprintf
                     "%s in figure data phase (binding %S); only *_present \
                      bindings may write to the console"
                     tok !binding))
            print_tokens;
          List.iter
            (fun tok ->
              if has_token line tok then
                report lineno "no-wallclock"
                  (Printf.sprintf
                     "%s in figure data phase (binding %S); figure data must \
                      be deterministic in sim time"
                     tok !binding))
            wallclock_tokens
        end;
        if
          fig
          && String.length line > 4
          && String.sub line 0 4 = "let "
          && (has_token line "ref" && has_token line "=")
        then
          report lineno "no-global-mutable"
            "top-level mutable state in a figure module; keep figure data \
             functional";
        (* Lock pairing (production code only: tests exercise the
           unpaired paths on purpose). *)
        if not (in_tests file) then begin
          acquires :=
            !acquires + count_token line "Lock.acquire"
            + count_token line "Lock.Counting.acquire"
            + count_token line "Counting.acquire";
          releases :=
            !releases + count_token line "Lock.release"
            + count_token line "Lock.Counting.release"
            + count_token line "Counting.release"
        end;
        (* Every Trace.emit must sit under a Trace.enabled guard so the
           disabled path stays free. *)
        if has_token line "Trace.emit" && Filename.basename file <> "trace.ml"
        then begin
          let guarded = ref false in
          for j = max 0 (i - 6) to i do
            if has_token lines.(j) "Trace.enabled" then guarded := true
          done;
          if not !guarded then
            report lineno "trace-guard"
              "Trace.emit without a Trace.enabled test in the preceding \
               lines; unguarded emission costs sim time even when tracing \
               is off"
        end;
        if
          Filename.basename file <> "trace.ml"
          && (not (in_tests file))
          && builds_trace_record lines i
        then begin
          let guarded = ref false in
          for j = max 0 (i - 6) to i do
            if List.exists is_trace_guard_token (line_tokens lines.(j)) then guarded := true
          done;
          if not !guarded then
            report lineno "trace-alloc"
              "Trace event record built without a Trace.enabled or tracing \
               test in the preceding lines; the record allocates even when \
               tracing is off"
        end
      end)
    lines;
  if !acquires > !releases then
    report 0 "lock-pairing"
      (Printf.sprintf
         "%d Lock.acquire call site(s) but only %d Lock.release; some path \
          leaks a lock — prefer Lock.with_lock"
         !acquires !releases);
  List.rev !findings
  @ matrix_violations (state_matrix_source ~file src)
  @ bump_gen_findings ~file src

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file path = check_source ~file:path (read_file path)

let check_tree ~roots =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then begin
            if entry <> "_build" && entry.[0] <> '.' then walk path
          end
          else if Filename.check_suffix entry ".ml" then
            files := path :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter (fun r -> if Sys.file_exists r && Sys.is_directory r then walk r) roots;
  List.concat_map check_file (List.sort compare (List.rev !files))
  |> List.sort (fun a b ->
         match compare a.file b.file with 0 -> compare a.line b.line | c -> c)
