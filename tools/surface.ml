(* Surface checker: lists what a library interface under lib/ declares
   that no program uses, and fails unless a committed allowlist names it
   with its reason.

   Usage: surface.exe ALLOWLIST --exports CMTI... --users CMT...

   [--exports] are the .cmti files of lib/ (one per .mli).  [--users]
   are the .cmt files of the programs (lib/, bin/, bench/, schedbench/,
   examples/); test/ is not one of them.  Four kinds of declaration are
   checked, each named by its path from the library:
   - a value ([Cluster.Profile.free_now]) that no unit outside its own
     references;
   - an optional parameter of such a value ([Sim.Run.simulate?machine])
     that no call passes.  An omitted optional argument is a
     compiler-inserted [None] at a ghost location; a passed one is not;
   - a record field ([Cluster.Running_set.entry.finish]) that no unit
     reads, by a field access or a record pattern; building or copying
     a record is not a read;
   - a variant constructor ([Core.Bound.t.Fixed]) that no unit
     builds; matching on it is not a build.
   Fields of an inline record are named after their constructor
   ([Core.Bound.t.Runtime_scaled.floor]).  Fields and constructors
   count as declared in lib/ whether the type is in the .mli or only in
   the .ml of a lib/ unit; a use in the declaring unit counts.

   Every path is resolved to that form: dune's [Lib__Mod] unit names are
   split at [__], module aliases bound in the file ([module P =
   Cluster.Profile], [let module ...]) are followed, and a name bound in
   the file's own structure or its submodules resolves to its place
   there ([Simcore.Pool.Span.t]).  A module passed whole (a functor
   argument, a first-class module) is not followed; lib/ has none.

   Each allowlist line is [NAME REASON], REASON one of [oracle],
   [invariant], [test hook] or [inspection]; [#] starts a comment.
   Exit 1, naming each, on a finding the allowlist does not hold and on
   an allowlist line that names no finding. *)

let reasons = [ "oracle"; "invariant"; "test hook"; "inspection" ]

type kind = Value | Option | Field | Constructor

let advice = function
  | Value ->
      "is exported, but no unit outside its own uses it (test/ does not \
       count): delete it, take it out of the .mli, move it to test/, or \
       allowlist it with its reason"
  | Option ->
      "is an optional parameter no program passes (test/ does not count): \
       make it a constant, or allowlist it with its reason"
  | Field ->
      "is a record field no program reads (test/ does not count): delete \
       it, or allowlist it with its reason"
  | Constructor ->
      "is a constructor no program builds (test/ does not count): delete \
       it, or allowlist it with its reason"

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

let where (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

(* The fields and constructors of one type declaration. *)
let type_decls add prefix (td : Typedtree.type_declaration) =
  let ty = prefix @ [ td.typ_name.txt ] in
  let fields ty =
    List.iter (fun (ld : Typedtree.label_declaration) ->
        add Field (String.concat "." (ty @ [ ld.ld_name.txt ])) ld.ld_loc)
  in
  match td.typ_kind with
  | Ttype_record lds -> fields ty lds
  | Ttype_variant cds ->
      List.iter
        (fun (cd : Typedtree.constructor_declaration) ->
          let c = ty @ [ cd.cd_name.txt ] in
          add Constructor (String.concat "." c) cd.cd_loc;
          match cd.cd_args with
          | Cstr_record lds -> fields c lds
          | Cstr_tuple _ -> ())
        cds
  | Ttype_abstract | Ttype_open -> ()

(* An interface's unit and its declarations: (kind, name, "file:line")
   for every [val] (submodules included), each optional parameter of
   one, and every field and constructor of its types. *)
let declarations file =
  let cmt = Cmt_format.read_cmt file in
  let acc = ref [] in
  let add kind name loc = acc := (kind, name, where loc) :: !acc in
  let rec optionals value (ct : Typedtree.core_type) =
    match ct.ctyp_desc with
    | Ttyp_arrow (Optional l, _, r) ->
        add Option (value ^ "?" ^ l) ct.ctyp_loc;
        optionals value r
    | Ttyp_arrow (_, _, r) | Ttyp_poly (_, r) -> optionals value r
    | _ -> ()
  in
  let rec signature prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let value = String.concat "." (prefix @ [ vd.val_name.txt ]) in
            add Value value vd.val_loc;
            optionals value vd.val_desc
        | Tsig_type (_, tds) -> List.iter (type_decls add prefix) tds
        | Tsig_module { md_name = { txt = Some name; _ };
                        md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            signature (prefix @ [ name ]) sg
        | _ -> ())
      sg.sig_items
  in
  let unit = split_unit cmt.cmt_modname in
  (match cmt.cmt_annots with
   | Interface sg -> signature unit sg
   | _ -> ());
  (String.concat "." unit, List.rev !acc)

(* What a unit uses: the unit's path, the names it uses as "Lib.Mod.x"
   strings, and the fields and constructors it declares itself. *)
let uses file =
  let cmt = Cmt_format.read_cmt file in
  let unit = split_unit cmt.cmt_modname in
  let bound = Hashtbl.create 64 in
  let bind id path = Hashtbl.replace bound (Ident.unique_name id) path in
  let rec resolve : Path.t -> string list option = function
    | Pident id -> (
        match Hashtbl.find_opt bound (Ident.unique_name id) with
        | Some p -> Some p
        | None -> Some (split_unit (Ident.name id)))
    | Pdot (p, s) | Pextra_ty (p, Pcstr_ty s) ->
        Option.map (fun p -> p @ [ s ]) (resolve p)
    | Papply _ | Pextra_ty (_, Pext_ty) -> None
  in
  let rec target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  let alias id me =
    match (id, target me) with
    | Some id, Some p -> bind id p
    | _ -> ()
  in
  let declared = ref [] in
  let add kind name loc = declared := (kind, name, where loc) :: !declared in
  (* Bind every name of the unit's structure to its path, submodules
     included, before any use is resolved. *)
  let rec structure prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter (fun id -> bind id (prefix @ [ Ident.name id ]))
              (Typedtree.let_bound_idents vbs)
        | Tstr_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                bind td.typ_id (prefix @ [ td.typ_name.txt ]);
                type_decls add prefix td)
              tds
        | Tstr_module mb -> module_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
        | _ -> ())
      str.str_items
  and module_binding prefix (mb : Typedtree.module_binding) =
    let rec body (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure str -> Some str
      | Tmod_constraint (me, _, _, _) -> body me
      | _ -> None
    in
    match (mb.mb_id, mb.mb_name.txt, body mb.mb_expr) with
    | Some id, Some name, Some str ->
        bind id (prefix @ [ name ]);
        structure (prefix @ [ name ]) str
    | _ -> alias mb.mb_id mb.mb_expr
  in
  let used = ref [] in
  let use path = used := String.concat "." path :: !used in
  let use_type ty name =
    match Types.get_desc ty with
    | Tconstr (p, _, _) -> Option.iter (fun p -> use (p @ [ name ])) (resolve p)
    | _ -> ()
  in
  let open Tast_iterator in
  let it =
    { default_iterator with
      module_binding =
        (fun sub mb -> alias mb.mb_id mb.mb_expr;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
           | Texp_ident (p, _, _) -> Option.iter use (resolve p)
           | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
               Option.iter
                 (fun p ->
                   List.iter
                     (function
                       | Asttypes.Optional l, Some (a : Typedtree.expression)
                         when not a.exp_loc.loc_ghost ->
                           used := (String.concat "." p ^ "?" ^ l) :: !used
                       | _ -> ())
                     args)
                 (resolve p)
           | Texp_field (_, _, l) -> use_type l.lbl_res l.lbl_name
           | Texp_construct (_, c, _) -> use_type c.cstr_res c.cstr_name
           | Texp_letmodule (id, _, _, me, _) -> alias id me
           | _ -> ());
          default_iterator.expr sub e);
      pat =
        (fun (type k) sub (p : k Typedtree.general_pattern) ->
          (match p.pat_desc with
           | Tpat_record (fields, _) ->
               List.iter (fun (_, (l : Types.label_description), _) ->
                   use_type l.lbl_res l.lbl_name) fields
           | _ -> ());
          default_iterator.pat sub p) }
  in
  (match cmt.cmt_annots with
   | Implementation str -> structure unit str; it.structure it str
   | _ -> ());
  (String.concat "." unit, !used, !declared)

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
  let interfaces = List.map declarations cmtis in
  let exported = List.concat_map snd interfaces in
  let in_mli = Hashtbl.create 4096 in
  List.iter (fun (_, name, _) -> Hashtbl.replace in_mli name ()) exported;
  let used = Hashtbl.create 4096 in
  let own_only = Hashtbl.create 4096 in
  let declared =
    List.concat_map
      (fun file ->
        let unit, names, declared = uses file in
        let own = unit ^ "." in
        List.iter
          (fun n ->
            Hashtbl.replace
              (if String.starts_with ~prefix:own n then own_only else used) n ())
          names;
        (* Types of a lib/ .ml that its .mli does not show. *)
        if List.mem_assoc unit interfaces then
          List.filter (fun (_, name, _) -> not (Hashtbl.mem in_mli name))
            declared
        else [])
      cmts
  in
  let findings =
    exported @ declared
    |> List.filter (fun (kind, name, _) ->
           not (Hashtbl.mem used name
                || (kind <> Value && Hashtbl.mem own_only name)))
  in
  let listed = allowlist allow_file in
  let errors = ref 0 in
  let fail fmt = incr errors; Printf.printf (fmt ^^ "\n") in
  List.iter
    (fun (kind, name, where) ->
      if not (List.exists (fun (_, n, _) -> n = name) listed) then
        fail "%s: %s %s" where name (advice kind))
    findings;
  List.iter
    (fun (line, name, reason) ->
      if not (List.mem reason reasons) then
        fail "%s:%d: %s: reason %S is not one of %s" allow_file line name
          reason (String.concat ", " reasons)
      else if not (List.exists (fun (_, n, _) -> n = name) findings) then
        fail "%s:%d: stale line: %s is used by a program, or no longer \
              declared" allow_file line name)
    listed;
  if !errors > 0 then exit 1
