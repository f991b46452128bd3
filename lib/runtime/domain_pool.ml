(* Real domains, spawned in waves of [max_domains] and joined in task
   order. *)

let parallel = true

let recommended_jobs () = Domain.recommended_domain_count ()

let run ?max_domains tasks =
  let n = Array.length tasks in
  let wave =
    match max_domains with
    | None -> max 1 n
    | Some m when m < 1 -> invalid_arg "Domain_pool.run: max_domains < 1"
    | Some m -> m
  in
  if n = 0 then [||]
  else if n = 1 then [| tasks.(0) () |]
  else begin
    let results = Array.make n None in
    let i = ref 0 in
    while !i < n do
      let hi = min n (!i + wave) in
      let domains =
        Array.init (hi - !i) (fun k -> Domain.spawn tasks.(!i + k))
      in
      Array.iteri
        (fun k d -> results.(!i + k) <- Some (Domain.join d))
        domains;
      i := hi
    done;
    Array.map Option.get results
  end
