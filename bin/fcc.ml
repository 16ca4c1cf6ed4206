(* fcc — flight-control compiler driver.

   Compiles mini-C source files (.mc) under one of the four
   configurations of the paper's evaluation and prints (or writes) the
   generated assembly. Optionally runs the whole-chain translation
   validation (source interpreter vs machine simulator) and prints the
   RTL dump of the verified-style compiler.

   fcc is a thin client of the compilation service: every input file
   becomes one [Fcstack.Request.t], executed either in-process against
   a private [Fcstack.Service] session (the batch default — several
   files fan out across -j N domains with deterministic, input-ordered
   output) or, with --connect SOCKET, against a running fcd daemon.
   Both transports produce byte-identical output; a daemon's warm
   analysis cache only changes wall clock, and a transport failure is
   per-file data (never mistakable for an answer). The client loop is
   [Fcstack.Cliopts.run_client], shared with aitw.

   fcc accepts the same cache trio as aitw/bench
   (--no-cache/--cache-dir/--cache-gc-mb) for a uniform toolchain
   surface — compilation itself never consults the WCET cache, but
   --cache-gc-mb still applies the size budget to a shared cache
   directory, so fcc can do store maintenance in a pipeline that
   interleaves compiles and analyses. fcc also accepts --engine, so a
   request built here behaves identically wherever it is executed. *)

let run (files : string list) (output : string option) (validate : bool)
    (dump_rtl : bool) (exact : bool)
    (stream : int option) (o : Fcstack.Cliopts.t)
    : int =
  let open Fcstack in
  match Option.map open_out output with
  | exception Sys_error msg ->
    Printf.eprintf "fcc: %s\n" msg;
    2
  | oc ->
    let request name source =
      Request.make ~name
        ~action:(Request.Compile { ac_dump_rtl = dump_rtl })
        ~opts:o.Cliopts.cl_opts ~validate ~exact
        ?deadline_ms:o.Cliopts.cl_deadline_ms source
    in
    (* A failed file carries its diagnostics plus whatever bytes were
       produced before the failure. *)
    let stats = ref [] in
    let emit (r : Response.t) : unit =
      print_string r.Response.rs_rtl;
      (match oc with
       | Some oc -> output_string oc r.Response.rs_output
       | None -> print_string r.Response.rs_output);
      prerr_string r.Response.rs_notes;
      if r.Response.rs_pass_stats <> [] then
        stats := r.Response.rs_pass_stats :: !stats
    in
    let finish _ summarize =
      Option.iter close_out oc;
      (* per-pass middle-end accounting, aggregated over all files:
         stderr-only, so stdout/-o output stays byte-identical across
         flag configurations; COTS configurations have no middle-end
         pipeline *)
      if !stats <> [] then
        Format.eprintf "%a@?" Vcomp.Pass.pp_stats
          (Vcomp.Pass.aggregate (List.rev !stats));
      summarize ()
    in
    Cliopts.run_client ~tool:"fcc" o ~stream ~request ~emit ~finish files

open Cmdliner

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.mc")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE.s" ~doc:"Write assembly here.")

let validate_arg =
  Arg.(value & flag
       & info [ "validate" ]
           ~doc:"Run whole-chain translation validation (interpreter vs \
                 simulator) after compiling.")

let dump_rtl_arg =
  Arg.(value & flag & info [ "dump-rtl" ] ~doc:"Dump the optimized RTL (vcomp).")

let exact_arg =
  Arg.(value & flag
       & info [ "exact" ]
           ~doc:"Disable semantics-relaxing optimizations (the default-O2 \
                 FMA contraction).")

let cmd =
  let doc = "compile flight-control mini-C under the paper's configurations" in
  Cmd.v
    (Cmd.info "fcc" ~doc)
    Term.(
      const run $ files_arg $ output_arg $ validate_arg $ dump_rtl_arg
      $ exact_arg $ Fcstack.Cliopts.stream_term
      $ Fcstack.Cliopts.term
          ~jobs_doc:
            "Compile input files across $(docv) domains. Output is \
             deterministic (input order) regardless of $(docv).")

let () = exit (Cmd.eval' cmd)
