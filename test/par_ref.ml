(* The sequential reference for [Fcstack.Par.run_stream]: produce a
   shard, run its tasks in order, fold each result into the consumer,
   then produce the next. A raising task, producer or consumer
   propagates at once, so the consumed prefix and the exception are the
   ones every [jobs] value of the product engine must reproduce. *)

let run_stream ~(producer : int -> (unit -> 'a) array option)
    ~(consumer : 'acc -> int -> 'a -> 'acc) ~(init : 'acc) : 'acc =
  let rec go k base acc =
    match producer k with
    | None -> acc
    | Some tasks ->
      let acc = ref acc in
      Array.iteri (fun i t -> acc := consumer !acc (base + i) (t ())) tasks;
      go (k + 1) (base + Array.length tasks) !acc
  in
  go 0 0 init
