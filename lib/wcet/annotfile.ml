(* The annotation file of paper section 3.4.

   "The listing generated by the assembler then shows this comment and
   the program counter (relative to the enclosing function) where it
   occurs. From this information, a suitable annotation file can be
   automatically generated for use by the a3 analyzer."

   This module is that generator: it extracts every annotation
   pseudo-instruction from a compiled program, records the enclosing
   function and the function-relative program counter, substitutes the
   final argument locations into the text (exactly like the assembly
   comment), and renders/parses a small textual format:

     # vericomp annotations
     "n003_main" + 0x58: loopbound 8
     "n003_main" + 0x90: 0 <= r5 <= 9

   The analyzer itself consumes annotations directly from the
   instruction stream; the file is the exchangeable artifact an
   external aiT-like tool would ingest, and the round trip
   (extract -> render -> parse) is covered by the test suite. *)

module Asm = Target.Asm

type entry = {
  an_function : string;
  an_offset : int;      (* bytes from function start *)
  an_text : string;     (* with substituted locations *)
}

let entry_equal (a : entry) (b : entry) : bool =
  String.equal a.an_function b.an_function
  && a.an_offset = b.an_offset
  && String.equal a.an_text b.an_text

(* Extract the annotations of one function, with substituted locations. *)
let extract_func (f : Asm.func) : entry list =
  let entries = ref [] in
  let offset = ref 0 in
  List.iter
    (fun i ->
       (match i with
        | Asm.Pannot (text, args) ->
          entries :=
            { an_function = f.Asm.fn_name;
              an_offset = !offset;
              an_text = Target.Emit.substitute_annot text args }
            :: !entries
        | _ -> ());
       offset := !offset + Asm.instr_size i)
    f.Asm.fn_code;
  List.rev !entries

(* Extract all annotations of a program, with substituted locations. *)
let extract (p : Asm.program) : entry list =
  List.concat_map extract_func p.Asm.pr_funcs

let render (entries : entry list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# vericomp annotations\n";
  List.iter
    (fun e ->
       Buffer.add_string buf
         (Printf.sprintf "%S + %#x: %s\n" e.an_function e.an_offset e.an_text))
    entries;
  Buffer.contents buf

exception Parse_error of string

(* Parse one line of the rendered format. *)
let parse_line (line : string) : entry option =
  let line = String.trim line in
  if String.length line = 0 || line.[0] = '#' then None
  else begin
    (* "name" + 0xOFF: text *)
    match String.index_opt line '"' with
    | Some 0 ->
      (match String.index_from_opt line 1 '"' with
       | Some close ->
         let name = String.sub line 1 (close - 1) in
         let rest = String.sub line (close + 1) (String.length line - close - 1) in
         let rest = String.trim rest in
         if String.length rest < 2 || rest.[0] <> '+' then
           raise (Parse_error ("expected '+' in: " ^ line))
         else begin
           let rest = String.trim (String.sub rest 1 (String.length rest - 1)) in
           match String.index_opt rest ':' with
           | Some colon ->
             let off_s = String.trim (String.sub rest 0 colon) in
             let text =
               String.trim
                 (String.sub rest (colon + 1) (String.length rest - colon - 1))
             in
             (match int_of_string_opt off_s with
              | Some off ->
                Some { an_function = name; an_offset = off; an_text = text }
              | None -> raise (Parse_error ("bad offset in: " ^ line)))
           | None -> raise (Parse_error ("expected ':' in: " ^ line))
         end
       | None -> raise (Parse_error ("unterminated name in: " ^ line)))
    | _ -> raise (Parse_error ("expected quoted function name in: " ^ line))
  end

let parse (text : string) : entry list =
  String.split_on_char '\n' text |> List.filter_map parse_line
