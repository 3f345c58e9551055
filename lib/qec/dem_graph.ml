let non_graphlike_count mechanisms =
  List.length (List.filter (fun m -> Array.length m.Dem.detectors > 2) mechanisms)

let edges ?(scale = 2.0) ?(max_weight = 40) mechanisms =
  (* Accumulate per-endpoint-pair: combined probability and the flag of the
     single likeliest contributing mechanism. *)
  let table : (int * int, (float * bool * float) ref) Hashtbl.t = Hashtbl.create 256 in
  let add u v p logical =
    let key = if u <= v then (u, v) else (v, u) in
    match Hashtbl.find_opt table key with
    | Some r ->
        let total, flag, best = !r in
        let total = (total *. (1. -. p)) +. (p *. (1. -. total)) in
        let flag, best = if p > best then (logical, p) else (flag, best) in
        r := (total, flag, best)
    | None -> Hashtbl.add table key (ref (p, logical, p))
  in
  List.iter
    (fun (m : Dem.mechanism) ->
      let logical = m.Dem.obs_mask <> 0 in
      match m.Dem.detectors with
      | [||] -> ()  (* undetectable; nothing a matcher can do *)
      | [| d |] -> add d Decoder_uf.boundary m.Dem.p logical
      | [| a; b |] -> add a b m.Dem.p logical
      | many ->
          (* Decompose into chained pairs; flag rides on the first link. *)
          let k = Array.length many in
          let i = ref 0 in
          while !i + 1 < k do
            add many.(!i) many.(!i + 1) m.Dem.p (logical && !i = 0);
            i := !i + 2
          done;
          if k mod 2 = 1 then add many.(k - 1) Decoder_uf.boundary m.Dem.p false)
    mechanisms;
  let weight_of p =
    if p <= 0. then max_weight
    else if p >= 0.5 then 1
    else max 1 (min max_weight (int_of_float (Float.round (scale *. log ((1. -. p) /. p)))))
  in
  Hashtbl.fold
    (fun (u, v) r acc ->
      let p, logical, _ = !r in
      let u, v = if u = Decoder_uf.boundary then (v, u) else (u, v) in
      (u, v, weight_of p, logical) :: acc)
    table []

let build ?scale ?max_weight ~nodes mechanisms =
  Decoder_uf.weighted_graph ~nodes ~edges:(edges ?scale ?max_weight mechanisms)
