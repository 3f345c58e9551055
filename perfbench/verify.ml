(* Correctness checks: experiment tables against what the `hetarch`
   subcommands print, and serve bodies against each other and against the
   in-process answer. *)

let digest s = Digest.to_hex (Digest.string s)

(* The region of [output] that starts at [expected]'s header line and spans
   as many lines; its digest must equal the expected table's digest. *)
let table_digest_in ~expected output =
  let want = String.split_on_char '\n' expected in
  let n = List.length want in
  let lines = Array.of_list (String.split_on_char '\n' output) in
  let rec find i =
    if i + n > Array.length lines then None
    else if lines.(i) = List.hd want then
      Some (String.concat "\n" (Array.to_list (Array.sub lines i n)))
    else find (i + 1)
  in
  Option.map digest (find 0)

let check_table ~what ~expected output =
  match table_digest_in ~expected output with
  | Some d when d = digest expected -> Ok ()
  | Some d ->
      Error (Printf.sprintf "%s: digest %s, expected %s" what d (digest expected))
  | None -> Error (Printf.sprintf "%s: table header not found in the CLI output" what)

(* A served body must be a success response for exactly this query. *)
let check_body (q : Serve.query) body =
  match Obs.Json.parse body with
  | exception Failure m -> Error ("unparseable body: " ^ m)
  | doc -> (
      let str k = match Obs.Json.member k doc with Some (Obs.Json.String s) -> s | _ -> "" in
      match Obs.Json.member "error" doc with
      | Some (Obs.Json.Obj _ as e) -> Error ("error response: " ^ Obs.Json.to_string e)
      | _ ->
          if str "schema" <> Serve.protocol_version then Error "wrong schema"
          else if str "kind" <> q.Serve.kind then Error "wrong kind"
          else if str "request" <> q.Serve.hash then Error "wrong request hash"
          else Ok ())

(* Byte identity across tiers and against the in-process answer. *)
let same_bytes ~what ~expected body =
  if String.equal expected body then Ok ()
  else
    Error
      (Printf.sprintf "%s: body differs (digest %s, expected %s)" what (digest body)
         (digest expected))
