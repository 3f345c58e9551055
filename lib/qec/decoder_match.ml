type edge = { u : int; v : int; weight : int; logical : bool }

type t = {
  n : int;  (* vertex n is the boundary *)
  adj : (int * int * bool) list array;  (* vertex -> (other, weight, logical) *)
}

let create ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Decoder_match.create: need nodes";
  let adj = Array.make (nodes + 1) [] in
  List.iter
    (fun (u, v, weight, logical) ->
      let v = if v = Decoder_uf.boundary then nodes else v in
      if u < 0 || u >= nodes || v < 0 || v > nodes || u = v then
        invalid_arg "Decoder_match.create: bad edge";
      if weight < 1 then invalid_arg "Decoder_match.create: weight >= 1";
      let e = { u; v; weight; logical } in
      adj.(u) <- (e.v, e.weight, e.logical) :: adj.(u);
      adj.(v) <- (e.u, e.weight, e.logical) :: adj.(v))
    edges;
  { n = nodes; adj }

(* Dijkstra from a source, returning distance and path logical parity to
   every vertex. *)
let dijkstra t src =
  let nv = t.n + 1 in
  let dist = Array.make nv max_int in
  let parity = Array.make nv false in
  let heap = Heap.create () in
  dist.(src) <- 0;
  Heap.push heap 0. src;
  let rec go () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        let d = int_of_float d in
        if d <= dist.(v) then
          List.iter
            (fun (w, weight, logical) ->
              let nd = d + weight in
              if nd < dist.(w) then begin
                dist.(w) <- nd;
                parity.(w) <- parity.(v) <> logical;
                Heap.push heap (float_of_int nd) w
              end)
            t.adj.(v);
        go ()
  in
  go ();
  (dist, parity)

let decode t syndrome =
  let defects = ref [] in
  for i = t.n - 1 downto 0 do
    if Bitvec.get syndrome i then defects := i :: !defects
  done;
  match !defects with
  | [] -> false
  | defects ->
      let defects = Array.of_list defects in
      let k = Array.length defects in
      let info = Array.map (fun d -> dijkstra t d) defects in
      let matched = Array.make k false in
      let flip = ref false in
      (* Candidate pairings sorted by distance; boundary is a partner too. *)
      let candidates = ref [] in
      for i = 0 to k - 1 do
        let dist, parity = info.(i) in
        for j = i + 1 to k - 1 do
          candidates := (dist.(defects.(j)), 0, parity.(defects.(j)), i, Some j) :: !candidates
        done;
        (* boundary partners rank after defect partners at equal distance:
           matching two defects clears both, a boundary match clears one *)
        candidates := (dist.(t.n), 1, parity.(t.n), i, None) :: !candidates
      done;
      let sorted =
        List.sort
          (fun (a, ba, _, _, _) (b, bb, _, _, _) -> compare (a, ba) (b, bb))
          !candidates
      in
      List.iter
        (fun (_, _, parity, i, j) ->
          let j_free = match j with None -> true | Some j -> not matched.(j) in
          if (not matched.(i)) && j_free then begin
            matched.(i) <- true;
            (match j with Some j -> matched.(j) <- true | None -> ());
            if parity then flip := not !flip
          end)
        sorted;
      !flip
