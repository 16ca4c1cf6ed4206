(* The middle-end pass manager: the pipeline is a declarative list of
   named passes, each enabled by a predicate over the option record,
   each run under the translation validator when [opt_validate] is on,
   and each measured — instructions rewritten/removed/hoisted and wall
   time — by diffing the snapshot the validator needs anyway.

   Analysis-heavy passes (GVN, LICM, the dead-code fixpoint) take a
   fuel budget in the style of the analyzer's [Wcet.Fuel]: exhaustion
   means the pass skips (identity), never that it miscompiles.

   The canonical [spec] string of an option record names the enabled
   passes and the fuel budget. Because two pipelines can produce
   different assembly for the same source, it is what the WCET layer
   folds into its content-addressed cache key. The CLI `--passes` flag
   goes through [of_spec], which reads the pass list alone: a spec with
   a "#fuel" suffix is not a valid `--passes` value. *)

type options = {
  opt_constprop : bool;
  opt_cse : bool;       (* local, epoch-aware value numbering (loads) *)
  opt_gvn : bool;       (* global value numbering of pure operations *)
  opt_licm : bool;      (* loop-invariant code motion *)
  opt_deadcode : bool;
  opt_validate : bool;
  opt_fuel : int;       (* analysis budget for GVN/LICM/deadcode *)
}

let default_fuel = 200_000

let default_options : options =
  { opt_constprop = true;
    opt_cse = true;
    opt_gvn = true;
    opt_licm = true;
    opt_deadcode = true;
    opt_validate = true;
    opt_fuel = default_fuel }

type pass = {
  name : string;
  transform : fuel:int -> Rtl.program -> Rtl.program;
  enabled_by : options -> bool;
}

let pipeline : pass list =
  [ { name = "constprop";
      transform = (fun ~fuel:_ p -> Constprop.transform p);
      enabled_by = (fun o -> o.opt_constprop) };
    { name = "cse";
      transform = (fun ~fuel:_ p -> Cse.transform p);
      enabled_by = (fun o -> o.opt_cse) };
    { name = "gvn";
      transform = (fun ~fuel p -> Gvn.transform ~fuel p);
      enabled_by = (fun o -> o.opt_gvn) };
    { name = "licm";
      transform = (fun ~fuel p -> Licm.transform ~fuel p);
      enabled_by = (fun o -> o.opt_licm) };
    { name = "deadcode";
      (* fuel is a sweep budget here, capped at 64 sweeps; a sweep
         costs one pass over the nodes plus re-solving the liveness of
         the registers its removals read *)
      transform = (fun ~fuel p -> Deadcode.transform ~fuel:(max 1 (min 64 fuel)) p);
      enabled_by = (fun o -> o.opt_deadcode) } ]

(* -- canonical pipeline spec ---------------------------------------- *)

(* Enabled pass names, comma-separated, plus the fuel budget (which
   also shapes the output: exhaustion skips work). Validation is not
   part of the spec: it never changes the generated code. *)
let spec (o : options) : string =
  let on = List.filter (fun ps -> ps.enabled_by o) pipeline in
  let names =
    match on with
    | [] -> "none"
    | _ -> String.concat "," (List.map (fun ps -> ps.name) on)
  in
  if o.opt_fuel = default_fuel then names
  else Printf.sprintf "%s#%d" names o.opt_fuel

let all_off : options =
  { default_options with
    opt_constprop = false;
    opt_cse = false;
    opt_gvn = false;
    opt_licm = false;
    opt_deadcode = false }

(* -O levels: 0 = no optimization, 1 = the classic local pipeline
   (CompCert 1.7 as the paper describes it), 2 = plus global GVN-CSE
   and LICM (the default). *)
let level (n : int) : options =
  match n with
  | 0 -> all_off
  | 1 -> { default_options with opt_gvn = false; opt_licm = false }
  | _ -> default_options

let of_spec (s : string) : (options, string) result =
  let enable o name =
    match name with
    | "constprop" -> Ok { o with opt_constprop = true }
    | "cse" -> Ok { o with opt_cse = true }
    | "gvn" -> Ok { o with opt_gvn = true }
    | "licm" -> Ok { o with opt_licm = true }
    | "deadcode" -> Ok { o with opt_deadcode = true }
    | _ ->
      Error
        (Printf.sprintf
           "unknown pass %S (expected constprop, cse, gvn, licm, deadcode)"
           name)
  in
  if String.trim s = "none" then Ok all_off
  else
    String.split_on_char ',' s
    |> List.fold_left
      (fun acc name ->
         match acc with
         | Error _ as e -> e
         | Ok o -> enable o (String.trim name))
      (Ok all_off)

(* -- the runner ----------------------------------------------------- *)

type pass_stats = {
  st_pass : string;
  st_enabled : bool;
  st_rewrites : int; (* instructions changed in place (to a different op) *)
  st_removed : int;  (* instructions that became no-ops *)
  st_hoisted : int;  (* instructions added outside loops by LICM *)
  st_ms : float;
}

let is_nop (i : Rtl.instruction) : bool =
  match i with Rtl.Inop _ -> true | _ -> false

(* Diff a snapshot against the transformed program. Comparison uses
   [Stdlib.compare] so NaN float constants compare equal to
   themselves. *)
let diff_stats (name : string) (ms : float) (before : Rtl.program)
    (after : Rtl.program) : pass_stats =
  let rewrites = ref 0 and removed = ref 0 and hoisted = ref 0 in
  List.iter2
    (fun (fb : Rtl.func) (fa : Rtl.func) ->
       Hashtbl.iter
         (fun n ia ->
            match Hashtbl.find_opt fb.Rtl.f_code n with
            | None -> if not (is_nop ia) then incr hoisted
            | Some ib ->
              if Stdlib.compare ib ia <> 0 then
                if is_nop ia then (if not (is_nop ib) then incr removed)
                else incr rewrites)
         fa.Rtl.f_code)
    before.Rtl.p_funcs after.Rtl.p_funcs;
  { st_pass = name;
    st_enabled = true;
    st_rewrites = !rewrites;
    st_removed = !removed;
    st_hoisted = !hoisted;
    st_ms = ms }

let disabled_stats (name : string) : pass_stats =
  { st_pass = name;
    st_enabled = false;
    st_rewrites = 0;
    st_removed = 0;
    st_hoisted = 0;
    st_ms = 0.0 }

(* Run the pipeline over a selected program. Every enabled pass is
   snapshot, run, validated (unless [opt_validate] is off) and
   measured; a validation failure raises [Validate.Validation_failed]
   and aborts the compilation. *)
let run_pipeline (opts : options) (p : Rtl.program) :
  Rtl.program * pass_stats list =
  let stats = ref [] in
  let p =
    List.fold_left
      (fun p pass ->
         if not (pass.enabled_by opts) then begin
           stats := disabled_stats pass.name :: !stats;
           p
         end
         else begin
           let before = Rtl.copy_program p in
           let t0 = Unix.gettimeofday () in
           let after = pass.transform ~fuel:opts.opt_fuel p in
           let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
           if opts.opt_validate then
             Validate.check_pass ~pass:pass.name ~before ~after;
           stats := diff_stats pass.name ms before after :: !stats;
           after
         end)
      p pipeline
  in
  (p, List.rev !stats)

(* -- stats aggregation and printing (stderr accounting) ------------- *)

(* Sum per-pass stats across many compilations, in pipeline order. *)
let aggregate (runs : pass_stats list list) : pass_stats list =
  List.map
    (fun pass ->
       List.fold_left
         (fun acc run ->
            List.fold_left
              (fun acc st ->
                 if st.st_pass = acc.st_pass then
                   { acc with
                     st_enabled = acc.st_enabled || st.st_enabled;
                     st_rewrites = acc.st_rewrites + st.st_rewrites;
                     st_removed = acc.st_removed + st.st_removed;
                     st_hoisted = acc.st_hoisted + st.st_hoisted;
                     st_ms = acc.st_ms +. st.st_ms }
                 else acc)
              acc run)
         (disabled_stats pass.name) runs)
    pipeline

let pp_stats (ppf : Format.formatter) (stats : pass_stats list) : unit =
  List.iter
    (fun st ->
       if not st.st_enabled then
         Format.fprintf ppf "pass %-9s off@." st.st_pass
       else
         (* wall time stays out of the printed line: stderr must be
            byte-deterministic (cram-tested); [st_ms] is for
            programmatic consumers *)
         Format.fprintf ppf
           "pass %-9s %4d rewritten, %4d removed, %4d hoisted@."
           st.st_pass st.st_rewrites st.st_removed st.st_hoisted)
    stats
