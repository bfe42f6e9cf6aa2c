type 'a t = { default : 'a; mutable cells : 'a array }

let create default = { default; cells = [||] }

let get t id =
  if id >= 0 && id < Array.length t.cells then Array.unsafe_get t.cells id
  else t.default

let set t id v =
  if id < 0 then invalid_arg "Id_table.set: negative id";
  let n = Array.length t.cells in
  if id >= n then begin
    let cells = Array.make (max (id + 1) (max 8 (2 * n))) t.default in
    Array.blit t.cells 0 cells 0 n;
    t.cells <- cells
  end;
  Array.unsafe_set t.cells id v
