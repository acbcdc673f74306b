(* Surface checker: lists every value a library interface under lib/
   exports that no other compilation unit of the programs uses, and
   fails unless a committed allowlist names it with its reason.

   Usage: surface.exe ALLOWLIST --exports CMTI... --users CMT...

   [--exports] are the .cmti files of lib/ (one per .mli); every [val]
   they declare, submodules included, is an export, named by its path
   from the library ([Cluster.Profile.free_now]).  [--users] are the .cmt
   files of the programs (lib/, bin/, bench/, schedbench/, examples/);
   each [Texp_ident] in them is resolved to the same form: dune's
   [Lib__Mod] unit names are split at [__], and module aliases bound in
   the file ([module P = Cluster.Profile], [let module ...]) are
   followed.  A reference from the export's own unit does not count,
   nor does a module passed whole (a functor argument, a first-class
   module), which lib/ has none of.

   Each allowlist line is [Lib.Mod.value REASON], REASON one of
   [oracle], [invariant], [test hook] or [inspection]; [#] starts a
   comment.  Exit 1, naming each, on an unused export the allowlist
   does not hold and on an allowlist line that names no unused
   export. *)

let reasons = [ "oracle"; "invariant"; "test hook"; "inspection" ]

(* "Cluster__Profile" -> ["Cluster"; "Profile"] *)
let rec split_unit name =
  let n = String.length name in
  let rec find i =
    if i + 1 >= n then None
    else if name.[i] = '_' && name.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> [ name ]
  | Some i -> String.sub name 0 i :: split_unit (String.sub name (i + 2) (n - i - 2))

(* Exports: (path, "file:line") for every [val] of an interface. *)
let exports file =
  let cmt = Cmt_format.read_cmt file in
  let acc = ref [] in
  let rec signature prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let pos = vd.val_loc.loc_start in
            let where = Printf.sprintf "%s:%d" pos.pos_fname pos.pos_lnum in
            acc := (String.concat "." (prefix @ [ vd.val_name.txt ]), where)
                   :: !acc
        | Tsig_module { md_name = { txt = Some name; _ };
                        md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            signature (prefix @ [ name ]) sg
        | _ -> ())
      sg.sig_items
  in
  (match cmt.cmt_annots with
   | Interface sg -> signature (split_unit cmt.cmt_modname) sg
   | _ -> ());
  List.rev !acc

(* Every value path a unit references, as "Lib.Mod.value" strings, with
   the unit's own name. *)
let references file =
  let cmt = Cmt_format.read_cmt file in
  let aliases = Hashtbl.create 8 in
  let rec resolve : Path.t -> string list option = function
    | Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some p -> Some p
        | None -> Some (split_unit (Ident.name id)))
    | Pdot (p, s) -> Option.map (fun p -> p @ [ s ]) (resolve p)
    | Papply _ | Pextra_ty _ -> None
  in
  let rec target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  let alias id me =
    match (id, target me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) p
    | _ -> ()
  in
  let refs = ref [] in
  let open Tast_iterator in
  let it =
    { default_iterator with
      module_binding =
        (fun sub mb -> alias mb.mb_id mb.mb_expr;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
           | Texp_ident (p, _, _) ->
               Option.iter (fun p -> refs := String.concat "." p :: !refs)
                 (resolve p)
           | Texp_letmodule (id, _, _, me, _) -> alias id me
           | _ -> ());
          default_iterator.expr sub e) }
  in
  (match cmt.cmt_annots with
   | Implementation str -> it.structure it str
   | _ -> ());
  (String.concat "." (split_unit cmt.cmt_modname), !refs)

let allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (n, l) ->
         match String.index_opt l ' ' with
         | Some j ->
             let reason = String.trim (String.sub l j (String.length l - j)) in
             (n, String.sub l 0 j, reason)
         | None -> (n, l, ""))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split = function
    | "--users" :: rest -> ([], rest)
    | f :: rest -> let e, u = split rest in (f :: e, u)
    | [] -> ([], [])
  in
  let allow_file, cmtis, cmts =
    match args with
    | a :: "--exports" :: rest -> let e, u = split rest in (a, e, u)
    | _ -> prerr_endline "usage: surface.exe ALLOWLIST --exports CMTI... --users CMT..."; exit 2
  in
  let used = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      let unit, refs = references file in
      let own = unit ^ "." in
      List.iter
        (fun r ->
          if not (String.starts_with ~prefix:own r) then Hashtbl.replace used r ())
        refs)
    cmts;
  let unused =
    List.concat_map exports cmtis
    |> List.filter (fun (name, _) -> not (Hashtbl.mem used name))
  in
  let listed = allowlist allow_file in
  let errors = ref 0 in
  let fail fmt = incr errors; Printf.printf (fmt ^^ "\n") in
  List.iter
    (fun (name, where) ->
      if not (List.exists (fun (_, n, _) -> n = name) listed) then
        fail "%s: %s is exported, but no unit outside its own uses it \
              (test/ does not count): delete it, take it out of the .mli, \
              move it to test/, or allowlist it with its reason" where name)
    unused;
  List.iter
    (fun (line, name, reason) ->
      if not (List.mem reason reasons) then
        fail "%s:%d: %s: reason %S is not one of %s" allow_file line name
          reason (String.concat ", " reasons)
      else if not (List.mem_assoc name unused) then
        fail "%s:%d: stale line: %s is used outside its own unit, or no \
              longer exported" allow_file line name)
    listed;
  if !errors > 0 then exit 1
