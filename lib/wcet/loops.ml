(* Natural loops of a reconstructed CFG, via the shared [Flow] toolkit.
   The compilers only produce reducible control flow — mini-C has no
   goto, in line with MISRA rule 14.4 discussed in the workshop's
   companion paper — so natural loops cover all cycles; the analyzer
   nevertheless verifies reducibility and reports irreducible flow as an
   analysis failure rather than returning an unsound bound. *)

exception Irreducible of string

type 'e flow_loop = 'e Flow.loop = {
  l_header : int;
  l_body : int list;
  l_back_edges : (int * 'e) list;
  l_entry_edges : (int * 'e) list;
}

type loop = Cfg.edge_kind flow_loop

type t = { loops : loop list }

let compute (cfg : Cfg.t) (dom : Dom.t) : t =
  try { loops = Flow.loops dom }
  with Flow.Irreducible (b, s) ->
    raise (Irreducible (Printf.sprintf "%s: edge B%d -> B%d" cfg.Cfg.c_fname b s))
