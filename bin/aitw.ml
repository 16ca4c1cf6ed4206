(* aitw — static WCET analyzer driver (the aiT stand-in).

   Compiles mini-C source files under a chosen configuration, links
   them (memory layout), runs the full analysis chain (CFG
   reconstruction, loop & value analysis, cache & pipeline analysis,
   IPET) and prints the WCET report. With --compare it analyzes all
   four configurations and prints a per-function comparison; with
   --simulate it also runs the simulator over several input worlds and
   reports the worst observed cycle count next to the bound.

   aitw is a thin client of the compilation service: every input file
   becomes one [Fcstack.Request.t] (action Analyze), executed either
   in-process against a private [Fcstack.Service] session — the batch
   default, where -j N fans files out across N domains over ONE shared
   analysis cache — or, with --connect SOCKET, against a running fcd
   daemon whose warm cache persists across whole invocations. Reports
   are byte-identical on every transport: caches and daemons change
   wall clock, never results. The annotation file travels back as
   response content and is written client-side. The client loop is
   [Fcstack.Cliopts.run_client], shared with fcc.

   The analysis cache (Wcet.Memo) is shared by all files,
   configurations and domains of a run — and, with --cache-dir (or
   FCSTACK_CACHE_DIR), persists across runs, so a warm invocation
   serves repeated analyses from disk. --no-cache is the escape hatch;
   --cache-gc-mb bounds the store (LRU) at the end of the run. With a
   persistent cache, hit/miss accounting goes to stderr. *)

let run (files : string list) (compare_all : bool) (simulate : bool)
    (annot_out : string option) (o : Fcstack.Cliopts.t) : int =
  let open Fcstack in
  if annot_out <> None && List.length files > 1 then begin
    Printf.eprintf "--annot-out requires a single input file\n";
    2
  end
  else begin
    let request name source =
      Request.make ~name
        ~action:
          (Request.Analyze
             { an_compare = compare_all;
               an_simulate = simulate;
               an_annot = annot_out })
        ~opts:o.Cliopts.cl_opts ?deadline_ms:o.Cliopts.cl_deadline_ms source
    in
    (* the annotation file is response content, written here at the
       end of the run (the daemon never touches the client's
       filesystem) *)
    let annot = ref None in
    let emit (r : Response.t) : unit =
      annot := r.Response.rs_annot;
      print_string r.Response.rs_output
    in
    let write_annot () : bool =
      match (annot_out, !annot) with
      | Some path, Some content -> (
          try
            Out_channel.with_open_text path (fun oc ->
                output_string oc content);
            true
          with Sys_error msg ->
            Printf.eprintf "aitw: %s\n" msg;
            false)
      | _ -> true
    in
    (* cache accounting is stderr-only: stdout reports stay
       byte-identical across cache/jobs configurations *)
    let finish session summarize =
      let written = write_annot () in
      let code = summarize () in
      Option.iter Cliopts.report_session_stats session;
      if written then code else 2
    in
    Cliopts.run_client ~tool:"aitw" o ~stream:None ~request ~emit ~finish
      files
  end

open Cmdliner

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.mc")

let compare_arg =
  Arg.(value & flag & info [ "compare" ] ~doc:"Analyze all four configurations.")

let simulate_arg =
  Arg.(value & flag
       & info [ "simulate" ]
           ~doc:"Also report the worst cycle count observed on the simulator.")

let annot_out_arg =
  Arg.(value & opt (some string) None
       & info [ "annot-out" ] ~docv:"FILE"
           ~doc:"Write the generated annotation file (paper section 3.4). \
                 Single input file only.")

let cmd =
  let doc = "static WCET analysis of compiled flight-control code" in
  Cmd.v
    (Cmd.info "aitw" ~doc)
    Term.(
      const run $ files_arg $ compare_arg $ simulate_arg $ annot_out_arg
      $ Fcstack.Cliopts.term
          ~jobs_doc:
            "Analyze input files across $(docv) domains. Reports are \
             printed in input order regardless of $(docv).")

let () = exit (Cmd.eval' cmd)
