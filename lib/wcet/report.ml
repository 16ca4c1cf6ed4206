(* Analysis report: the WCET bound together with the intermediate
   evidence a certification-minded user wants to inspect (loop bounds
   and their provenance, cache footprint and classification quality,
   ILP exactness). *)

(* Which path-analysis engine produced the bound. [Ipet] is the
   original structural ILP; [Omt] is the optimization-modulo-theory
   engine ([Smt]: the same paths under semantic infeasible-path cuts,
   searched by branch & bound over the IPET pass); [Both]
   runs the two and cross-checks omt <= ipet per function (the
   differential oracle — a violation is an analysis refusal). *)
type engine = Ipet | Omt | Both

let engine_name (e : engine) : string =
  match e with Ipet -> "ipet" | Omt -> "omt" | Both -> "both"

let engine_of_string (s : string) : (engine, string) Result.t =
  match s with
  | "ipet" -> Ok Ipet
  | "omt" -> Ok Omt
  | "both" -> Ok Both
  | _ -> Error (Printf.sprintf "unknown WCET engine %S (ipet|omt|both)" s)

type loop_info = {
  li_header : int;
  li_bound : int;
  li_from_annotation : bool;
}

type t = {
  rp_function : string;
  rp_wcet : int;               (* cycles; the selected engine's bound *)
  rp_exact_ilp : bool;
  rp_blocks : int;
  rp_code_bytes : int;
  rp_loops : loop_info list;
  rp_cache_first_miss : int;   (* one-time line-fill cycles in the bound *)
  rp_cache_imprecise : bool;
  rp_code_lines : int;
  rp_data_lines : int;
  rp_engine : engine;
  rp_wcet_ipet : int option;   (* IPET bound, when [Both] computed it *)
  rp_wcet_omt : int option;    (* OMT bound, under [Omt] or [Both] *)
  rp_omt_cuts : int;           (* infeasible-path cuts the encoding used *)
}

let pp (ppf : Format.formatter) (r : t) : unit =
  Format.fprintf ppf
    "@[<v>WCET report for %s@,\
    \  WCET bound        : %d cycles%s@,\
    \  blocks / code     : %d blocks, %d bytes@,\
    \  cache             : %d code lines, %d data lines, first-miss budget %d%s@,"
    r.rp_function r.rp_wcet
    (if r.rp_exact_ilp then "" else " (relaxation bound)")
    r.rp_blocks r.rp_code_bytes r.rp_code_lines r.rp_data_lines
    r.rp_cache_first_miss
    (if r.rp_cache_imprecise then " [imprecise access: degraded]" else "");
  (* engine evidence: only printed for the non-default engines, so the
     default (IPET) report stays byte-identical to the pre-engine
     analyzer — the cram/CI determinism cmps depend on that *)
  (match r.rp_engine with
   | Ipet -> ()
   | Omt ->
     Format.fprintf ppf "  engine            : omt (%d infeasible-path cuts)@,"
       r.rp_omt_cuts
   | Both ->
     Format.fprintf ppf
       "  engine            : both — ipet %d, omt %d cycles (%d cuts, \
        omt <= ipet holds)@,"
       (Option.value ~default:r.rp_wcet r.rp_wcet_ipet)
       (Option.value ~default:r.rp_wcet r.rp_wcet_omt)
       r.rp_omt_cuts);
  (match r.rp_loops with
   | [] -> Format.fprintf ppf "  loops             : none@,"
   | loops ->
     Format.fprintf ppf "  loops             :@,";
     List.iter
       (fun l ->
          Format.fprintf ppf "    header B%d: bound %d (%s)@," l.li_header
            l.li_bound
            (if l.li_from_annotation then "annotation" else "auto"))
       loops);
  Format.fprintf ppf "@]"

let to_string (r : t) : string = Format.asprintf "%a" pp r

(* Accounting for a batch of analyses (the [Memo] cache snapshot): how
   many bounds were served from cache versus recomputed, and how often
   each phase actually ran — the evidence that a speedup is real, not
   asserted. Phase counts are per *attempted* analysis, so a refused
   analysis (e.g. unbounded loop) shows decode > ipet. *)

type analysis_stats = {
  st_hits : int;        (* served from the in-memory table *)
  st_disk_hits : int;   (* served from the persistent store *)
  st_misses : int;
  st_writes : int;      (* entries persisted to the store *)
  st_entries : int;
  st_decode : int;
  st_value : int;
  st_bounds : int;
  st_cache : int;
  st_pipeline : int;
  st_ipet : int;
  st_omt : int;
}

let hit_rate (st : analysis_stats) : float =
  let hits = st.st_hits + st.st_disk_hits in
  let total = hits + st.st_misses in
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

let pp_stats (ppf : Format.formatter) (st : analysis_stats) : unit =
  Format.fprintf ppf
    "@[<v>analysis cache   : %d memory hits, %d disk hits, %d misses \
     (%.1f%% hit rate), %d entries, %d disk writes@,\
     phases run       : decode %d, value %d, bounds %d, cache %d, \
     pipeline %d, IPET %d%s@]"
    st.st_hits st.st_disk_hits st.st_misses (hit_rate st) st.st_entries
    st.st_writes st.st_decode st.st_value st.st_bounds st.st_cache
    st.st_pipeline st.st_ipet
    (* OMT runs only under the non-default engines; keep the default
       stats line byte-identical to the pre-engine analyzer *)
    (if st.st_omt = 0 then "" else Printf.sprintf ", OMT %d" st.st_omt)

let stats_to_string (st : analysis_stats) : string =
  Format.asprintf "%a" pp_stats st

(* Machine-readable cache accounting for the scaling study: one flat
   JSON object (no trailing newline) a bench leg can embed. Phase
   counters stay out — the study tracks cache effectiveness, and the
   phase counts are recoverable from the stderr stats line. *)
let stats_json (st : analysis_stats) : string =
  Printf.sprintf
    "{ \"memory_hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
     \"hit_rate_pct\": %.2f, \"entries\": %d, \"disk_writes\": %d }"
    st.st_hits st.st_disk_hits st.st_misses (hit_rate st) st.st_entries
    st.st_writes
